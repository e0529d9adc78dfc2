"""Every byte golden under tests/reference/ and perfbench/reference/, with
the flipkit command that writes it and the exit code it must give.

tests/test_cli.py runs each entry in-process through cli.main.  Run as a
script, from any directory, this file runs each one through the
installed `flipkit` console script and exits 1 if any output differs:

    python tests/goldens.py
"""

import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests" / "reference"
BENCH = ROOT / "perfbench" / "reference"
TMP = "{tmp}"  # in an argv, the directory the entry's files are written to


@dataclass(frozen=True)
class Golden:
    """One command and the bytes it must write.

    output is "stdout", "stderr" or a file name the argv writes under
    TMP.  Every other stream must be empty, but for the stdout of a
    command that prints its report beside the file (report=True).
    """

    path: Path
    argv: tuple[str, ...]
    output: str = "stdout"
    code: int = 0
    report: bool = False


CPW = ("cpw", "--w", "10um", "--z0", "50", "--eps-sub", "11.9")
TRANSMON = ("transmon", "--cj", "8fF", "--cs", "81fF", "--lj", "8.75nH")
# a notch with Qc = 2 Ql, so the dip bottoms out at -6.02 dB
SMATRIX = ("smatrix", "--fr", "7.11524GHz", "--ql", "6618.16",
           "--qc", "13236.32", "--points", "201")
# the README's port-match recipe, on the line Z0 that `flipkit cpw` gives
MATCH = ("match", "--line-z0", "49.5329732423", "--band", "4GHz:8GHz",
         "--line-length", "3mm", "--eps-eff", "6.45", "--points", "2001")
FIELDSOLVE = ("fieldsolve", "--w", "10um", "--s", "5.806um", "--eps-sub",
              "11.9")


def _plot(grid_args: tuple[str, ...], name: str) -> Golden:
    # the paper's two headline figures, drawn by the README's study
    # commands; with --out the sweep prints nothing
    return Golden(TESTS / name, ("sweep", *grid_args, "--out",
                                 f"{TMP}/sweep.csv", "--plot", f"{TMP}/{name}",
                                 "--logx", "--logy"), output=name)


GOLDENS = (
    # the benchmark's behaviour reference: the packaged preset's report
    # and both sweeps
    Golden(BENCH / "preset_analyze.json", ("analyze", "--json")),
    Golden(BENCH / "preset_thickness.csv",
           ("sweep", "--param", "interlayer_thickness", "--grid",
            "0.1mm:4mm:log25")),
    Golden(BENCH / "preset_loss.csv",
           ("sweep", "--param", "loss_tangent", "--grid", "0:1e-3:log25")),
    Golden(TESTS / "preset_analyze.txt", ("analyze",)),
    # the preset with no loss.participation.*, a facing ground at 40 um and
    # readout.g_qr: the report and the loss sweep take the participation
    # from a field solve, and each qubit row carries chi
    Golden(TESTS / "field_solved_analyze.json",
           ("analyze", "--json", "--config", str(TESTS / "field_solved.cfg"))),
    Golden(TESTS / "field_solved_loss.csv",
           ("sweep", "--param", "loss_tangent", "--grid", "0:1e-3:log25",
            "--config", str(TESTS / "field_solved.cfg"))),
    # the preset without coupling.f_* and with an interlayer tan delta:
    # the coupling block takes the closed-form qubit frequencies
    Golden(TESTS / "closed_form_lossy_analyze.json",
           ("analyze", "--json", "--config",
            str(TESTS / "closed_form_lossy.cfg"))),
    # one error of each kind, all reported, and nothing on stdout
    Golden(TESTS / "bad_config.stderr",
           ("analyze", "--config", str(TESTS / "bad_config.cfg")),
           output="stderr", code=1),
    _plot(("--param", "interlayer_thickness", "--grid", "0.1mm:4mm:log40",
           "--y", "g_hz"), "g_vs_thickness.svg"),
    _plot(("--param", "loss_tangent", "--grid", "1e-4:1e-2:log25",
           "--y", "q_total_bottom,q_total_top"), "q_vs_tan_delta.svg"),
    Golden(TESTS / "cpw_synth.txt", CPW),
    Golden(TESTS / "cpw_synth.json", (*CPW, "--json")),
    # one per route through the charge-basis oracle: at ng = 0 it
    # diagonalizes the two parity blocks, at ng = 0.5 the whole matrix
    Golden(TESTS / "transmon_ng0.json", (*TRANSMON, "--ng", "0", "--json")),
    Golden(TESTS / "transmon_ng05.json",
           (*TRANSMON, "--ng", "0.5", "--json")),
    Golden(TESTS / "smatrix.json", (*SMATRIX, "--json")),
    Golden(TESTS / "smatrix.csv", (*SMATRIX, "--out", f"{TMP}/smatrix.csv"),
           output="smatrix.csv", report=True),
    Golden(TESTS / "smatrix_dressed.json",
           ("smatrix", "--fr", "7GHz", "--ql", "1000", "--qc", "2000",
            "--chi", "100MHz", "--json")),
    Golden(TESTS / "match.json", (*MATCH, "--json")),
    Golden(TESTS / "match.csv", (*MATCH, "--out", f"{TMP}/match.csv"),
           output="match.csv", report=True),
    # the preset report runs no field solve, so the solver has goldens of
    # its own: open, facing at 40 um, facing at 0.5 um cells, and facing
    # one cell above the metal (a band one row tall)
    Golden(TESTS / "fieldsolve_open.json", (*FIELDSOLVE, "--cell", "1um",
                                            "--json")),
    Golden(TESTS / "fieldsolve_facing.json",
           (*FIELDSOLVE, "--cell", "1um", "--interlayer", "40um", "--json")),
    Golden(TESTS / "fieldsolve_facing_fine.json",
           (*FIELDSOLVE, "--cell", "0.5um", "--interlayer", "20um", "--json")),
    Golden(TESTS / "fieldsolve_one_row_band.json",
           (*FIELDSOLVE, "--cell", "1um", "--interlayer", "1um", "--json")),
    # at a 2 um cell the 10 um trace's half-width lies on a half cell,
    # where snapping is a tie
    Golden(TESTS / "fieldsolve_tie.json",
           ("fieldsolve", "--w", "10um", "--s", "6um", "--eps-sub", "11.9",
            "--cell", "2um", "--json")),
    # the potential map itself, cell by cell, not only its integrals
    Golden(TESTS / "fieldsolve_potential.csv",
           ("fieldsolve", "--w", "4um", "--s", "2um", "--eps-sub", "11.9",
            "--cell", "2um", "--interlayer", "10um", "--dump-potential",
            f"{TMP}/potential.csv"), output="potential.csv", report=True),
)


def mismatches(golden: Golden, run, tmp: Path) -> list[str]:
    """What golden's command got wrong, empty when it wrote the golden.

    run(argv) gives the (exit code, stdout bytes, stderr bytes) of one
    flipkit command; tmp is an existing directory for its files.
    """
    code, out, err = run([arg.replace(TMP, str(tmp)) for arg in golden.argv])
    streams = {"stdout": b"" if golden.report else out, "stderr": err}
    written = tmp / golden.output
    if golden.output not in streams:
        streams[golden.output] = written.read_bytes() \
            if written.exists() else None
    got, want = streams.pop(golden.output), golden.path.read_bytes()
    problems = [f"exit {code}, not {golden.code}"] * (code != golden.code)
    problems += [f"{name} is not empty" for name, data in streams.items()
                 if data]
    if got is None:
        problems.append(f"{golden.output} was not written")
    elif got != want:
        line = os.path.commonprefix([got, want]).count(b"\n") + 1
        problems.append(f"{golden.output} differs from line {line} on")
    return problems


def console_script(argv: list[str]) -> tuple[int, bytes, bytes]:
    proc = subprocess.run(["flipkit", *argv], capture_output=True,
                          timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    failed = 0
    for golden in GOLDENS:
        with tempfile.TemporaryDirectory() as tmp:
            problems = mismatches(golden, console_script, Path(tmp))
        name = golden.path.relative_to(ROOT)
        print(f"{'FAIL' if problems else 'ok'} {name}: flipkit "
              f"{' '.join(golden.argv)}")
        for problem in problems:
            print(f"    {problem}")
        failed += bool(problems)
    print(f"{len(GOLDENS) - failed} of {len(GOLDENS)} goldens match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
