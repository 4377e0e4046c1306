"""The table-cell kernel and the table writer, with Python's ``%.16e`` as the oracle."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from hens._cells import fmt, format_rows
from hens.cli import TABLE_CELLS, write_table


def kernel_text(values, cols: int = 1) -> str:
    block = np.asarray(values, dtype=float).reshape(-1, cols)
    return format_rows(block, b",", b"\n").tobytes().decode()


def python_text(values, cols: int = 1) -> str:
    rows = np.asarray(values, dtype=float).reshape(-1, cols).tolist()
    return "".join(",".join(map(fmt, row)) + "\n" for row in rows)


def ulps_around(x: float, ulps: int) -> np.ndarray:
    bits = np.float64(x).view(np.int64) + np.arange(-ulps, ulps + 1)
    return bits[bits >= 0].view(np.float64)  # down to +0 near the subnormals


class TestKernel:
    def test_powers_of_ten_and_their_neighbours(self):
        # every decade's edge, where floor(log10) and the power table are tested
        values = np.concatenate([ulps_around(float(f"1e{k}"), 60) for k in range(-323, 309)])
        assert np.all(np.isfinite(values))
        assert kernel_text(values) == python_text(values)

    def test_seventeen_nines_and_a_five(self):
        # each parses to the double nearest 10^(k + 1); where that double lies just
        # below the power, its 17 digits are all nines, one rounding from a carry
        values = np.concatenate([ulps_around(float(f"9.99999999999999995e{k}"), 4)
                                 for k in range(-300, 301)])
        text = python_text(values)
        assert text.count("9.9999999999999999e") > 20
        assert kernel_text(values) == text

    def test_dyadic_ties(self):
        # k/8 between 1e14 and 1e15 ends in .125, .375, .625 or .875 at the 18th
        # significant digit: an exact tie, which Python rounds half to even
        rng = np.random.default_rng(0)
        eighths = rng.integers(8 * 10**14, 8 * 10**15, 4000) / 8.0
        assert np.any(np.mod(eighths * 8, 2) == 1)
        tiny = np.arange(1, 4001) * 2.0**-40
        values = np.concatenate([eighths, -eighths, np.arange(-800, 801) / 8.0, tiny])
        assert kernel_text(values) == python_text(values)

    def test_special_values(self):
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                  np.finfo(float).max, np.finfo(float).tiny, 1e-280, 1e280, 9.999999999999999e279]
        assert kernel_text(values) == python_text(values)
        assert kernel_text(values, len(values)) == python_text(values, len(values))

    def test_floats(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=100, deadline=None, database=None)
        @hypothesis.given(values=st.lists(st.floats(), min_size=1, max_size=40),
                          cols=st.sampled_from([1, 2, 5]))
        def check(values, cols):
            values = values[:len(values) // cols * cols] or [0.0] * cols
            assert kernel_text(values, cols) == python_text(values, cols)

        check()

    def test_bit_patterns(self):
        # every float64, NaN payloads and subnormals included
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=100, deadline=None, database=None)
        @hypothesis.given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
        def check(bits):
            values = np.array(bits, dtype=np.uint64).view(np.float64)
            assert kernel_text(values) == python_text(values)

        check()


def percent_writer(cfg, stem, header, columns):
    """The table writer as it was before the kernel: one %-template per block of 4096
    rows, filled in one call."""
    table = np.column_stack(columns)
    fields = ["%.16e"] * table.shape[1]
    if cfg["output.format"] == "csv":
        path = os.path.join(cfg["output.dir"], stem + ".csv")
        head, row, sep, tail = ",".join(header) + "\n", ",".join(fields) + "\n", "", ""
    else:
        path = os.path.join(cfg["output.dir"], stem + ".json")
        head = '{\n  "columns": %s,\n  "rows": [\n' % json.dumps(header)
        row, sep, tail = "    [" + ", ".join(fields) + "]", ",\n", "\n  ]\n}\n"
    parts = [head]
    for i in range(0, len(table), 4096):
        block = table[i:i + 4096]
        parts.append((sep if i else "") + sep.join([row] * len(block))
                     % tuple(block.ravel().tolist()))
    with open(path, "w", newline="") as fh:
        fh.writelines(parts + [tail])
    return path


def awkward_columns(rows: int, cols: int) -> list[np.ndarray]:
    rng = np.random.default_rng(rows * 131 + cols)
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-320, 305, (rows, cols))
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.125, 1e14 + 0.125, 5e-324])
    table.ravel()[::7] = special[np.arange(table.ravel()[::7].size) % special.size]
    return [table[:, j] for j in range(cols)]


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("rows, cols", [
    (0, 2), (1, 1), (1, 65), (2, 65),
    (TABLE_CELLS - 1, 1), (TABLE_CELLS, 1), (TABLE_CELLS + 1, 1),
    (TABLE_CELLS // 4 - 1, 4), (TABLE_CELLS // 4, 4), (TABLE_CELLS // 4 + 1, 4),
    (3, TABLE_CELLS + 1),
])
def test_writer_matches_the_percent_template(tmp_path, output_format, rows, cols):
    header = [f"c{j}" for j in range(cols)]
    columns = awkward_columns(rows, cols)
    got = write_table({"output.dir": str(tmp_path / "kernel"), "output.format": output_format},
                      "table", header, columns)
    os.makedirs(tmp_path / "percent")
    want = percent_writer({"output.dir": str(tmp_path / "percent"),
                           "output.format": output_format}, "table", header, columns)
    with open(got, "rb") as a, open(want, "rb") as b:
        assert a.read() == b.read()


def test_writer_memory_does_not_grow_with_rows(tmp_path):
    cfg = {"output.dir": str(tmp_path), "output.format": "csv"}

    def peak(rows):
        column = np.linspace(-1.0, 1.0, rows)
        tracemalloc.start()
        try:
            write_table(cfg, "wp", ["omega"], [column])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(16)  # a first call's one-time set-up is no part of the writer
    # a copy of the 2^18-row column alone would take 2 MiB; one block of TABLE_CELLS
    # cells takes about 0.6 MiB
    assert abs(peak(1 << 18) - peak(1 << 16)) < 1 << 16
    assert peak(1 << 18) < 1 << 20
