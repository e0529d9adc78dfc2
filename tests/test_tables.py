"""SweepTable: row checks and the CSV writer, against one f-string a cell."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flipkit.tables import SweepTable

# nan, the infinities, both zeros, the smallest subnormal and one deeper
# in the subnormal range, the largest magnitudes a sweep could hold and
# whole numbers, which %g prints without a point
EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1.2e-310,
         1e300, -1e300, 1.0, -3.0, 25.0, 123456789012.0, 1e16]


def per_cell_csv(table):
    """The CSV text as written one f"{x:.12g}" per cell."""
    lines = [",".join(table.header())]
    for i, p in enumerate(table.param_values):
        cells = [p] + [col[i] for col in table.columns.values()]
        lines.append(",".join(f"{x:.12g}" for x in cells))
    return "\n".join(lines) + "\n"


def table_of(rows, n_metrics):
    table = SweepTable(param_name="p")
    for row in rows:
        table.add_row(row[0], **{f"m{j}": x for j, x in enumerate(row[1:])})
    if not rows:  # no row declares the columns: declare them directly
        table.columns = {f"m{j}": [] for j in range(n_metrics)}
    return table


cells = st.floats() | st.sampled_from(EDGES)
shapes = st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(cells, min_size=n + 1, max_size=n + 1),
                         max_size=12)))


@given(shapes)
def test_csv_equals_per_cell_formatting(shape):
    n_metrics, rows = shape
    table = table_of(rows, n_metrics)
    assert table.to_csv() == per_cell_csv(table)


@pytest.mark.parametrize("n_metrics", [0, 1, 3])
def test_csv_of_every_edge_value(n_metrics):
    # each edge value lands in every column, the parameter's included
    k = n_metrics + 1
    rows = [[EDGES[(i + j) % len(EDGES)] for j in range(k)]
            for i in range(len(EDGES))]
    table = table_of(rows, n_metrics)
    text = table.to_csv()
    assert text == per_cell_csv(table)
    assert {"nan", "inf", "-inf", "-0", "4.94065645841e-324", "1e+300",
            "1", "123456789012", "1e+16"} <= set(
                text.replace("\n", ",").split(","))


@pytest.mark.parametrize("n_metrics,text", [(0, "p\n"), (2, "p,m0,m1\n")])
def test_csv_of_zero_rows_is_the_header(n_metrics, text):
    assert table_of([], n_metrics).to_csv() == text


def test_single_column_table():
    table = table_of([[0.5], [-0.0], [math.nan]], 0)
    assert table.to_csv() == "p\n0.5\n-0\nnan\n"


def test_row_metrics_must_match_the_columns():
    table = table_of([[1.0, 2.0, 3.0]], 2)
    for metrics in ({"m0": 1.0}, {"m0": 1.0, "m1": 2.0, "m2": 3.0},
                    {"m0": 1.0, "other": 2.0}):
        with pytest.raises(ValueError,
                           match="^row metrics do not match existing "
                                 "columns$"):
            table.add_row(2.0, **metrics)
    table.add_row(2.0, m1=5.0, m0=4.0)  # keyword order does not matter
    assert table.to_csv() == "p,m0,m1\n1,2,3\n2,4,5\n"


@pytest.mark.parametrize("values", [[1.0, 2.0], []],
                         ids=["too-long", "too-short"])
def test_csv_refuses_a_column_of_another_length(values):
    # a longer column used to lose its extra values from the CSV, and a
    # shorter one to fail inside the "%" format with a TypeError
    table = SweepTable("p", [1.0], {"a": [3.0], "b": values})
    with pytest.raises(ValueError,
                       match=f"^column 'b' has {len(values)} values, 'p' "
                             "has 1$"):
        table.to_csv()
