import csv
import hashlib
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from magsample import (
    SamplingDistribution,
    centroid_similarity,
    load_embeddings,
    rankme_profile,
    read_image_array,
    write_distribution,
    write_image_array,
)
from magsample import cli
from magsample.cli import fnv1a64, main
from magsample.errors import (
    DegenerateInputError,
    DomainError,
    FeasibilityError,
    FormatError,
    MagsampleError,
    ParameterError,
    RangeError,
    ShapeError,
    SolverError,
)
from magsample.kernels import MagRange, kernel_from_string
from magsample.rankme import (
    EmbeddingSet,
    read_embeddings_binary,
    write_rankme_csv,
    write_similarity_csv,
)

from conftest import (
    CSV_READERS,
    child_env,
    read_embeddings_binary_reference,
    write_embeddings_binary,
)

DU_TEXT = """#msdist v1
range 0.25 2.0
atom 0.25 0.25
atom 0.5 0.25
atom 1.0 0.25
atom 2.0 0.25
"""

CU_TEXT = """#msdist v1
range 0.25 2.0
density 1
1.0
"""


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "du.msdist").write_text(DU_TEXT)
    (tmp_path / "cu.msdist").write_text(CU_TEXT)
    return tmp_path


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _manifest(path):
    lines = Path(str(path) + ".manifest.txt").read_text().splitlines()
    return dict(line.split(" ", 1) for line in lines)


def _sha256(path):
    # one-shot oracle, independent of the CLI's streamed digest
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_fnv1a64_known_vectors():
    # reference values of the 64-bit FNV-1a parameters
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_kernel_command_argmax(workdir):
    assert main(["kernel", "--kernel", "abs", "--range", "0.25:2.0",
                 "--grid", "1001", "--out", "curve.csv"]) == 0
    rows = _read_csv(workdir / "curve.csv")
    assert rows[0] == ["x_mpp", "transfer_potential"]
    values = np.array([[float(a), float(b)] for a, b in rows[1:]])
    assert values[np.argmax(values[:, 1]), 0] == 1.125
    manifest = (workdir / "curve.csv.manifest.txt").read_text().splitlines()
    keys = [line.split(" ", 1)[0] for line in manifest]
    assert keys == sorted(keys)
    assert "subcommand kernel" in manifest


def test_kernel_command_bad_grid_exits_2(workdir, capsys):
    assert main(["kernel", "--grid", "1", "--out", "x.csv"]) == 2
    assert "grid" in capsys.readouterr().err


def test_kernel_command_missing_custom_exits_2(workdir, capsys):
    assert main(["kernel", "--kernel", "custom:missing.csv", "--out", "x.csv"]) == 2
    assert "missing.csv" in capsys.readouterr().err


def test_kernel_command_custom_table(workdir):
    lines = ["x,y,value"]
    for x in (0.25, 1.0, 2.0):
        for y in (0.25, 1.0, 2.0):
            lines.append(f"{x},{y},{1.0 / (1.0 + abs(x - y))}")
    (workdir / "table.csv").write_text("\n".join(lines) + "\n")
    assert main(["kernel", "--kernel", "custom:table.csv", "--grid", "101",
                 "--out", "curve.csv"]) == 0
    assert _manifest(workdir / "curve.csv")["digest.kernel"] == _sha256(workdir / "table.csv")


@pytest.mark.parametrize("selector", ["info", "abs", "custom:table.csv"])
def test_kernel_command_writes_each_value_by_repr(workdir, selector):
    xs = np.linspace(0.2, 2.1, 7).tolist()
    lines = ["x,y,value"] + [f"{x!r},{y!r},{1.0 / (1.0 + x * y)!r}" for x in xs for y in xs]
    (workdir / "table.csv").write_text("\n".join(lines) + "\n")
    assert main(["kernel", "--kernel", selector, "--grid", "333", "--out", "curve.csv"]) == 0
    xs = MagRange().grid(333)
    values = kernel_from_string(selector).transfer_potential(xs, MagRange())
    # reference: each numpy scalar converted and formatted on its own
    want = "x_mpp,transfer_potential\n" + "".join(
        f"{float(x)!r},{float(v)!r}\n" for x, v in zip(xs, values))
    assert (workdir / "curve.csv").read_bytes() == want.encode()


@pytest.mark.parametrize("command", [["kernel"], ["optimize", "--objective", "maxmin"]])
def test_custom_table_with_infinite_coordinate_exits_2(workdir, capsys, command):
    lines = ["x,y,value"]
    for x in (0.2, 1.0, "inf"):
        for y in (0.2, 1.0, 2.5):
            lines.append(f"{x},{y},0.5")
    (workdir / "table.csv").write_text("\n".join(lines) + "\n")
    assert main([*command, "--kernel", "custom:table.csv", "--grid", "20",
                 "--out", "out.csv"]) == 2
    assert capsys.readouterr().err.endswith(
        "error: table.csv: tabulated grid coordinates must be positive and finite\n")
    assert not (workdir / "out.csv").exists()


@pytest.mark.parametrize("command", [["kernel"], ["optimize", "--objective", "maxmin"]])
def test_custom_table_with_repeated_sample_exits_2(workdir, capsys, command):
    lines = ["x,y,value"]
    for x in (0.2, 1.0, 2.5):
        for y in (0.2, 1.0, 2.5):
            lines.append(f"{x},{y},0.5")
    lines.insert(3, "0.2,0.2,7")
    (workdir / "table.csv").write_text("\n".join(lines) + "\n")
    assert main([*command, "--kernel", "custom:table.csv", "--grid", "20",
                 "--out", "out.csv"]) == 2
    assert "line 4" in capsys.readouterr().err
    assert not (workdir / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ["kernel"],
    ["signal", "--dist", "cu.msdist"],
    ["compare", "du.msdist", "cu.msdist"],
    ["optimize", "--objective", "maxavg"],
    ["optimize", "--objective", "maxmin"],
], ids=["kernel", "signal", "compare", "maxavg", "maxmin"])
def test_table_that_does_not_cover_the_range_exits_2(workdir, capsys, argv):
    # every command refuses the table with one message, before it computes
    xs = np.linspace(0.5, 1.5, 4).tolist()
    rows = [f"{x},{y},1.0" for x in xs for y in xs]
    (workdir / "small.csv").write_text("\n".join(["x,y,value", *rows]) + "\n")
    assert main([*argv, "--kernel", "custom:small.csv", "--grid", "20", "--out", "out.csv"]) == 2
    assert capsys.readouterr().err == (
        f"magsample {argv[0]}: error: kernel 'custom' is not defined on [0.25, 2.0]\n")
    assert not (workdir / "out.csv").exists()


_NARROW_CELLS = (
    "1000 cells on [1.0, 1.00000000000001] are too narrow for floats: "
    "their edges must strictly increase and 1 / cell width must be finite\n"
)


@pytest.mark.parametrize("objective", ["maxmin", "maxavg"])
def test_optimize_on_cells_floats_cannot_resolve_exits_2(workdir, capsys, objective):
    # the 1,001 edges hold 46 distinct floats; both objectives exited 0, and
    # every quantile of maxmin's file was NaN
    assert main(["optimize", "--objective", objective, "--kernel", "abs",
                 "--range", "1:1.00000000000001", "--grid", "1000", "--out", "n.msdist"]) == 2
    assert capsys.readouterr().err == f"magsample optimize: error: {_NARROW_CELLS}"
    assert not (workdir / "n.msdist").exists()
    assert not (workdir / "n.msdist.manifest.txt").exists()


@pytest.mark.parametrize("argv", [["plan", "--n", "3"], ["signal", "--kernel", "abs"]],
                         ids=["plan", "signal"])
def test_dist_on_cells_floats_cannot_resolve_exits_2(workdir, capsys, argv):
    # plan wrote rows of target_mpp nan and crop_size_px -2^63, and signal a
    # total of 0.0, both exiting 0
    (workdir / "n.msdist").write_text(
        "#msdist v1\nrange 1.0 1.00000000000001\ndensity 1000\n" + "1.0\n" * 1000)
    assert main([*argv, "--dist", "n.msdist", "--out", "out.csv"]) == 2
    assert capsys.readouterr().err == f"magsample {argv[0]}: error: n.msdist: {_NARROW_CELLS}"
    assert not (workdir / "out.csv").exists()


def test_cells_whose_reciprocal_width_overflows_exit_2_without_a_warning(workdir):
    # each cell is 1e-309 wide; max-min's q / cell width overflowed, with a
    # RuntimeWarning, before its density was refused. A child process, so
    # that stderr holds whatever numpy would warn.
    out = subprocess.run(
        [sys.executable, "-m", "magsample.cli", "optimize", "--objective", "maxmin",
         "--kernel", "info", "--range", "1e-306:2e-306", "--grid", "1000", "--out", "t.msdist"],
        capture_output=True, text=True, env=child_env(),
    )
    assert out.returncode == 2
    assert out.stderr == ("magsample optimize: error: 1000 cells on [1e-306, 2e-306] are too "
                          "narrow for floats: their edges must strictly increase and 1 / cell "
                          "width must be finite\n")
    assert not (workdir / "t.msdist").exists()


def test_signal_command_du(workdir):
    assert main(["signal", "--dist", "du.msdist", "--kernel", "info",
                 "--grid", "1000", "--out", "profile.csv"]) == 0
    rows = _read_csv(workdir / "profile.csv")
    assert rows[0] == ["y_mpp", "signal"]
    assert len(rows) == 1001
    summary = _read_csv(workdir / "profile.summary.csv")
    assert summary[0] == ["strategy", "min", "argmin", "total", "mean"]
    name, mn, argmin, total, mean = summary[1]
    assert name == "du"
    assert float(mn) == pytest.approx(0.286, abs=0.01)
    assert float(total) == pytest.approx(0.560, abs=0.01)


def test_signal_digests_each_input_once(workdir, monkeypatch):
    (workdir / "table.csv").write_text(
        "x,y,value\n0.25,0.25,1.0\n0.25,2.0,0.5\n2.0,0.25,0.5\n2.0,2.0,1.0\n"
    )
    digested = []
    real_digest = cli._digest

    def counting_digest(path):
        digested.append(path)
        return real_digest(path)

    monkeypatch.setattr(cli, "_digest", counting_digest)
    assert main(["signal", "--dist", "du.msdist", "--kernel", "custom:table.csv",
                 "--grid", "50", "--out", "p.csv"]) == 0
    assert sorted(digested) == ["du.msdist", "table.csv"]
    profile = (workdir / "p.csv.manifest.txt").read_bytes()
    assert (workdir / "p.summary.csv.manifest.txt").read_bytes() == profile
    manifest = _manifest(workdir / "p.csv")
    assert manifest["digest.dist"] == _sha256(workdir / "du.msdist")
    assert manifest["digest.kernel"] == _sha256(workdir / "table.csv")


def test_signal_command_cu(workdir):
    assert main(["signal", "--dist", "cu.msdist", "--out", "p.csv"]) == 0
    row = _read_csv(workdir / "p.summary.csv")[1]
    assert float(row[1]) == pytest.approx(0.126, abs=0.005)
    assert float(row[3]) == pytest.approx(0.731, abs=0.005)


def test_signal_command_malformed_dist_names_line(workdir, capsys):
    (workdir / "bad.msdist").write_text("#msdist v1\nrange 0.25 2.0\natom x 1\n")
    assert main(["signal", "--dist", "bad.msdist", "--out", "p.csv"]) == 2
    assert "line 3" in capsys.readouterr().err


def test_signal_command_empty_dist(workdir, capsys):
    (workdir / "empty.msdist").write_text("")
    assert main(["signal", "--dist", "empty.msdist", "--out", "p.csv"]) == 2


@pytest.mark.parametrize("argv", [["signal", "--dist", "du.msdist"], ["compare", "du.msdist"]],
                         ids=["signal", "compare"])
def test_commands_reading_a_distribution_take_no_range(workdir, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--range", "0.25:2.0", "--out", "o.csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --range 0.25:2.0" in capsys.readouterr().err


def test_compare_on_mixed_ranges_exits_2(workdir, capsys):
    write_distribution(SamplingDistribution.uniform(MagRange(0.5, 1.0)), "narrow.msdist")
    assert main(["compare", "--kernel", "abs", "--out", "t.csv",
                 "du.msdist", "cu.msdist", "narrow.msdist"]) == 2
    assert capsys.readouterr().err == (
        "magsample compare: error: narrow.msdist is on the range [0.5, 1.0], not on "
        "[0.25, 2.0] of du.msdist; compare needs one range\n"
    )
    assert not Path("t.csv").exists()


@pytest.mark.parametrize("body, message", [
    ("atom 5.0 1\n", "atom at 5.0 outside range [0.25, 2.0]"),
    ("density 2\n1.0 -1.0\n", "density cell values must be nonnegative and finite"),
    ("density 2\n0 0\n", "distribution has no mass"),
    ("atom 0.5 -1\natom 1.0 2\n", "atom weight must be nonnegative, got -1.0"),
    ("atom 0.5 nan\n", "atom locations and weights must be finite"),
], ids=["atom-off-range", "negative-cell", "no-mass", "negative-weight", "non-finite-atom"])
def test_compare_names_the_file_whose_values_are_invalid(workdir, capsys, body, message):
    Path("out.msdist").write_text("#msdist v1\nrange 0.25 2.0\n" + body)
    assert main(["compare", "--grid", "50", "--out", "c.csv", "du.msdist", "out.msdist"]) == 2
    assert capsys.readouterr().err == f"magsample compare: error: out.msdist: {message}\n"


# File names holding a byte that is not UTF-8, as sys.argv hands them over
_FF_DIST, _FE_OUT = os.fsdecode(b"\xff.msdist"), os.fsdecode(b"\xfe.csv")


@pytest.mark.parametrize("argv, outs", [
    (["signal", "--dist", _FF_DIST, "--grid", "20", "--out", "s.csv"], ["s.csv", "s.summary.csv"]),
    (["compare", "--grid", "20", "--out", "c.csv", _FF_DIST, "du.msdist"], ["c.csv"]),
    (["plan", "--dist", _FF_DIST, "--n", "3", "--out", _FE_OUT], [_FE_OUT]),
    (["kernel", "--grid", "20", "--out", _FE_OUT], [_FE_OUT]),
    (["optimize", "--objective", "maxmin", "--grid", "20", "--out", _FE_OUT], [_FE_OUT]),
], ids=["signal", "compare", "plan", "kernel", "optimize"])
def test_non_utf8_file_names_are_written_as_backslash_escapes(workdir, argv, outs):
    Path(_FF_DIST).write_text(DU_TEXT)
    assert main(argv) == 0
    paths = [p for out in outs for p in (out, out + ".manifest.txt")]
    texts = {p: Path(p).read_bytes().decode("utf-8") for p in paths}
    name = r"\udcff" if _FF_DIST in argv else r"\udcfe"
    assert name in texts[outs[0] + ".manifest.txt"]
    if argv[0] in ("signal", "compare"):  # the summary row is named by the file's stem
        assert f"\n{name}," in texts[outs[-1]]


def test_compare_command(workdir):
    assert main(["optimize", "--objective", "maxavg", "--lambda", "1.0",
                 "--grid", "400", "--out", "maxavg.msdist"]) == 0
    assert main(["optimize", "--objective", "maxmin",
                 "--grid", "400", "--out", "maxmin.msdist"]) == 0
    assert main(["compare", "--grid", "400", "--out", "table.csv",
                 "cu.msdist", "du.msdist", "maxmin.msdist", "maxavg.msdist"]) == 0
    rows = _read_csv(workdir / "table.csv")
    assert [r[0] for r in rows[1:]] == ["cu", "du", "maxmin", "maxavg"]
    mins = {r[0]: float(r[1]) for r in rows[1:]}
    totals = {r[0]: float(r[3]) for r in rows[1:]}
    # strategy ordering: worst-case favors maxmin, average favors maxavg
    assert mins["maxmin"] > mins["du"] > mins["cu"] > mins["maxavg"]
    assert totals["maxavg"] > totals["cu"] > totals["maxmin"] > totals["du"]


def test_compare_single_file_exits_2(workdir, capsys):
    assert main(["compare", "--out", "t.csv", "du.msdist"]) == 2
    assert capsys.readouterr().err.startswith("magsample compare: error: ")


def test_compare_duplicate_gives_identical_rows(workdir):
    assert main(["compare", "--out", "t.csv", "du.msdist", "du.msdist"]) == 0
    rows = _read_csv(workdir / "t.csv")
    assert rows[1] == rows[2]


def test_compare_quotes_a_strategy_name_that_holds_a_comma(workdir):
    (workdir / "a,b.msdist").write_text(DU_TEXT)
    assert main(["compare", "--out", "t.csv", "a,b.msdist", "du.msdist"]) == 0
    rows = _read_csv(workdir / "t.csv")
    assert [len(r) for r in rows] == [5, 5, 5]
    assert [r[0] for r in rows] == ["strategy", "a,b", "du"] and rows[1][1:] == rows[2][1:]
    assert (workdir / "t.csv").read_text().splitlines()[1].startswith('"a,b",')


def test_optimize_maxmin_writes_achieved_t(workdir):
    assert main(["optimize", "--objective", "maxmin", "--grid", "200",
                 "--out", "mm.msdist"]) == 0
    lines = (workdir / "mm.msdist").read_text().splitlines()
    tags = [l for l in lines if l.startswith("# achieved_t ")]
    assert len(tags) == 1
    assert float(tags[0].split()[-1]) == pytest.approx(0.325, abs=0.01)


def test_plan_command_deterministic(workdir):
    args = ["plan", "--dist", "cu.msdist", "--n", "50", "--seed", "11",
            "--patch-size", "224", "--source-size", "512",
            "--standards", "0.25,0.5,1.0,2.0"]
    assert main(args + ["--out", "a/plan.csv"]) == 2  # directory does not exist
    (workdir / "a").mkdir()
    (workdir / "b").mkdir()
    assert main(args + ["--out", "a/plan.csv"]) == 0
    import os
    os.replace("a/plan.csv", "b/plan.csv")
    os.replace("a/plan.csv.manifest.txt", "b/plan.csv.manifest.txt")
    assert main(args + ["--out", "a/plan.csv"]) == 0
    a_bytes = (workdir / "a/plan.csv").read_bytes()
    b_bytes = (workdir / "b/plan.csv").read_bytes()
    assert a_bytes == b_bytes
    assert (workdir / "a/plan.csv.manifest.txt").read_bytes() == (
        workdir / "b/plan.csv.manifest.txt"
    ).read_bytes()
    rows = _read_csv(workdir / "a/plan.csv")
    assert len(rows) == 51


def test_plan_manifest_records_seed(workdir):
    assert main(["plan", "--dist", "du.msdist", "--n", "3", "--seed", "9",
                 "--out", "plan.csv"]) == 0
    manifest = (workdir / "plan.csv.manifest.txt").read_text()
    assert "seed 9" in manifest
    assert _manifest(workdir / "plan.csv")["digest.dist"] == _sha256(workdir / "du.msdist")


def test_rankme_and_similarity_commands(workdir):
    g = np.random.default_rng(3)
    mpps = np.repeat([0.25, 0.5, 1.0], 30)
    vectors = g.standard_normal((90, 12))
    write_embeddings_binary("emb.mseb", EmbeddingSet(mpps=mpps, vectors=vectors))
    assert main(["rankme", "--embeddings", "emb.mseb", "--out", "rankme.csv"]) == 0
    rows = _read_csv(workdir / "rankme.csv")
    assert rows[0] == ["mpp", "count", "rankme"]
    assert len(rows) == 4
    assert all(r[1] == "30" for r in rows[1:])

    assert main(["similarity", "--embeddings", "emb.mseb", "--out", "sim.csv"]) == 0
    rows = _read_csv(workdir / "sim.csv")
    assert len(rows) == 4
    assert float(rows[1][1]) == 1.0


def test_rankme_manifest_digest_of_multi_chunk_input(workdir):
    # larger than one read chunk, so the streamed digest must match the
    # one-shot digest of the whole file
    g = np.random.default_rng(8)
    mpps = np.repeat([0.25, 0.5, 1.0], 1500)
    vectors = g.standard_normal((mpps.size, 128))
    write_embeddings_binary("big.mseb", EmbeddingSet(mpps=mpps, vectors=vectors))
    assert (workdir / "big.mseb").stat().st_size > 2 * 1024 * 1024
    assert main(["rankme", "--embeddings", "big.mseb", "--out", "r.csv"]) == 0
    assert _manifest(workdir / "r.csv")["digest.embeddings"] == _sha256(workdir / "big.mseb")


@pytest.mark.parametrize("command", ["rankme", "similarity"])
def test_rankme_outputs_match_the_float64_reference_bytes(workdir, command):
    # the CLI on float32 vectors kept as loaded, against the same file read by
    # the reader that widened every vector to float64 on load
    g = np.random.default_rng(31)
    mpps = np.repeat(0.25 * 2.0 ** (np.arange(5) / 2.0), 200)
    vectors = g.standard_normal((1000, 48)) @ g.standard_normal((48, 48)) + 3.0
    write_embeddings_binary("emb.mseb", EmbeddingSet(mpps=mpps, vectors=vectors))
    assert main([command, "--embeddings", "emb.mseb", "--out", "got.csv"]) == 0
    reference = read_embeddings_binary_reference("emb.mseb")
    with open("want.csv", "w", newline="") as f:
        if command == "rankme":
            write_rankme_csv(rankme_profile(reference), f)
        else:
            write_similarity_csv(centroid_similarity(reference), f)
    assert Path("got.csv").read_bytes() == Path("want.csv").read_bytes()


# A header that claims far more than its file of a few bytes holds
_LYING_HEADERS = {
    "mseb": (
        struct.pack("<4sHQI", b"MSEB", 1, 2**40, 384) + b"\0" * 6,
        load_embeddings,
        ["rankme", "--embeddings", "lying.bin", "--out", "r.csv"],
        f"embedding payload is 6 bytes, expected {2**40 * (8 + 4 * 384)}",
    ),
    "msim": (
        struct.pack("<4sIII", b"MSIM", 65535, 65535, 4) + b"\0" * 6,
        read_image_array,
        ["crop-apply", "--image", "lying.bin", "--plan", "plan.csv", "--index", "0",
         "--out", "o.msim"],
        f"image payload is 6 bytes, expected {65535 * 65535 * 4 * 4}",
    ),
}


@pytest.mark.parametrize("kind", sorted(_LYING_HEADERS))
def test_lying_header_allocates_nothing_and_exits_2(workdir, capsys, kind):
    data, read, argv, message = _LYING_HEADERS[kind]
    (workdir / "lying.bin").write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"^lying.bin: {message}$"):
            read("lying.bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert main(argv) == 2
    assert f"error: lying.bin: {message}" in capsys.readouterr().err


_BAD_MSEB_HEADERS = {
    "truncated": (b"MSEB\x01\x00", "truncated embedding header"),
    "version": (struct.pack("<4sHQI", b"MSEB", 2, 1, 1) + b"\0" * 12,
                "unsupported embedding version 2"),
    # load_embeddings reads a file without the MSEB magic as CSV
    "magic": (struct.pack("<4sHQI", b"MSEX", 1, 1, 1) + b"\0" * 12,
              "bad embedding magic b'MSEX'"),
    # as a header-only embeddings CSV
    "no-rows": (struct.pack("<4sHQI", b"MSEB", 1, 0, 2), "embedding file contains no rows"),
    "zero-dim": (struct.pack("<4sHQI", b"MSEB", 1, 1, 0) + b"\0" * 8,
                 "unsupported embedding dimension 0"),
    # numpy's records hold at most 2**31 - 1 bytes: 8 + 4 * 536870909 is the most
    "dim-2**29": (struct.pack("<4sHQI", b"MSEB", 1, 0, 2**29),
                  "unsupported embedding dimension 536870912"),
    "dim-2**29-1": (struct.pack("<4sHQI", b"MSEB", 1, 0, 2**29 - 1),
                    "unsupported embedding dimension 536870911"),
    "dim-past-a-record": (struct.pack("<4sHQI", b"MSEB", 1, 0, 536870910),
                          "unsupported embedding dimension 536870910"),
    "largest-dim": (struct.pack("<4sHQI", b"MSEB", 1, 0, 536870909),
                    "embedding file contains no rows"),
}


@pytest.mark.parametrize("kind", sorted(_BAD_MSEB_HEADERS))
def test_bad_mseb_header_exits_2(workdir, capsys, kind):
    data, message = _BAD_MSEB_HEADERS[kind]
    Path("bad.mseb").write_bytes(data)
    with pytest.raises(FormatError, match=f"^bad.mseb: {message}$"):
        read_embeddings_binary("bad.mseb")
    assert main(["rankme", "--embeddings", "bad.mseb", "--out", "r.csv"]) == 2
    if kind == "magic":
        message = "line 1: expected header 'id,mpp,d0,d1,...'"
    assert capsys.readouterr().err == f"magsample rankme: error: bad.mseb: {message}\n"


_BAD_MSIM_HEADERS = {
    "empty": (b"", "truncated image header"),
    "truncated": (b"MSIM" + b"\0" * 11, "truncated image header"),
    "magic": (b"NOPE" + b"\0" * 12, "bad image magic b'NOPE'"),
    # a zero-size array of this shape is more than numpy can index
    "no-pixels": (struct.pack("<4sIII", b"MSIM", 0, 2**32 - 1, 2**32 - 1),
                  "image file contains no pixels"),
    "no-channels": (struct.pack("<4sIII", b"MSIM", 2, 2, 0), "image file contains no pixels"),
}


@pytest.mark.parametrize("kind", sorted(_BAD_MSIM_HEADERS))
def test_bad_msim_header_exits_2(workdir, capsys, kind):
    data, message = _BAD_MSIM_HEADERS[kind]
    Path("bad.msim").write_bytes(data)
    with pytest.raises(FormatError, match=f"^bad.msim: {message}$"):
        read_image_array("bad.msim")
    argv = ["crop-apply", "--image", "bad.msim", "--plan", "plan.csv", "--out", "o.msim"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"magsample crop-apply: error: bad.msim: {message}\n"
    assert not Path("o.msim").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["kernel", "--range", "1"], "range must look like <a>:<b>, got '1'"),
        (["kernel", "--range", "a:b"],
         "bad range 'a:b': could not convert string to float: 'a'"),
        (["optimize", "--objective", "maxavg", "--range", "2:1"],
         "bad range '2:1': magnification range requires 0 < a < b, got [2.0, 1.0]"),
        (["plan", "--dist", "du.msdist", "--n", "3", "--standards", "0.25,x"],
         "bad standard mpp list '0.25,x'"),
        (["plan", "--dist", "du.msdist", "--n", "3", "--standards", "0.5,0.25"],
         "standard mpps must be a nonempty, strictly increasing, positive sequence"),
        (["plan", "--dist", "du.msdist", "--n", "3", "--standards", "0.25,nan"],
         "standard mpps must be finite, got (0.25, nan)"),
        (["plan", "--dist", "du.msdist", "--n", "3", "--standards", "0.25,inf"],
         "standard mpps must be finite, got (0.25, inf)"),
        (["plan", "--dist", "du.msdist", "--n", "3", "--patch-size", "0"],
         "patch sizes must be positive"),
        (["plan", "--dist", "du.msdist", "--n", "3", "--source-size", "4294967296"],
         "patch sizes must be at most 4294967295 px, the largest .msim side"),
        (["plan", "--dist", "du.msdist", "--n", "3", "--source-size", "4722366482869645213696",
          "--patch-size", "1180591620717411303424"],
         "patch sizes must be at most 4294967295 px, the largest .msim side"),
        (["plan", "--dist", "du.msdist", "--n", "3", "--patch-size", "4294967296"],
         "patch sizes must be at most 4294967295 px, the largest .msim side"),
        (["rankme", "--embeddings", "emb.mseb", "--epsilon", "nan"],
         "epsilon must be finite and nonnegative, got nan"),
        (["rankme", "--embeddings", "emb.mseb", "--epsilon", "inf"],
         "epsilon must be finite and nonnegative, got inf"),
        (["rankme", "--embeddings", "emb.mseb", "--group-tol", "nan"],
         "group tolerance must be finite and nonnegative, got nan"),
        (["similarity", "--embeddings", "emb.mseb", "--group-tol", "inf"],
         "group tolerance must be finite and nonnegative, got inf"),
        (["similarity", "--embeddings", "emb.mseb", "--group-tol", "-1"],
         "group tolerance must be finite and nonnegative, got -1.0"),
    ],
    ids=["range-arity", "range-text", "range-bounds", "standards-text", "standards-order",
         "standards-nan", "standards-inf", "patch-size", "source-size-past-msim",
         "sizes-past-int64", "patch-size-past-msim", "epsilon-nan", "epsilon-inf",
         "group-tol-nan", "group-tol-inf", "group-tol-negative"],
)
def test_bad_range_or_standards_exits_2(workdir, capsys, argv, message):
    mpps = np.repeat([0.25, 0.5, 1.0], 20)
    vectors = np.random.default_rng(2).standard_normal((60, 4))
    write_embeddings_binary("emb.mseb", EmbeddingSet(mpps=mpps, vectors=vectors))
    assert main(argv + ["--out", "o.csv"]) == 2
    assert capsys.readouterr().err == f"magsample {argv[0]}: error: {message}\n"
    assert not Path("o.csv").exists()


def test_rankme_csv_input(workdir):
    lines = ["id,mpp,d0,d1"]
    for i in range(6):
        lines.append(f"p{i},0.5,{i % 2}.0,1.0")
    (workdir / "emb.csv").write_text("\n".join(lines) + "\n")
    assert main(["rankme", "--embeddings", "emb.csv", "--out", "r.csv"]) == 0
    rows = _read_csv(workdir / "r.csv")
    assert rows[1][1] == "6"


def test_rankme_degenerate_exits_1(workdir, capsys):
    write_embeddings_binary(
        "zero.mseb", EmbeddingSet(mpps=[0.5, 0.5], vectors=np.ones((2, 3)) * 0.0)
    )
    assert main(["rankme", "--embeddings", "zero.mseb", "--out", "r.csv"]) == 1
    assert "singular" in capsys.readouterr().err


def test_crop_apply_roundtrip(workdir):
    g = np.random.default_rng(5)
    img = g.random((512, 512, 3)).astype(np.float32)
    write_image_array("img.msim", img)
    atom = SamplingDistribution(MagRange(), atoms=[(1.0, 1.0)])
    write_distribution(atom, "atom.msdist")
    assert main(["plan", "--dist", "atom.msdist", "--n", "1", "--seed", "4",
                 "--out", "plan.csv"]) == 0
    assert main(["crop-apply", "--image", "img.msim", "--plan", "plan.csv",
                 "--index", "0", "--out", "out.msim"]) == 0
    from magsample import read_image_array, read_plan_csv, apply_crop

    entry = read_plan_csv("plan.csv")[0]
    assert entry["crop_size_px"] == 224  # identity crop at a standard mpp
    expected = apply_crop(img, entry)
    assert np.array_equal(read_image_array("out.msim"), expected)


def test_crop_apply_missing_index(workdir, capsys):
    g = np.random.default_rng(5)
    write_image_array("img.msim", g.random((512, 512, 1)).astype(np.float32))
    write_distribution(SamplingDistribution(MagRange(), atoms=[(1.0, 1.0)]), "a.msdist")
    assert main(["plan", "--dist", "a.msdist", "--n", "1", "--out", "plan.csv"]) == 0
    assert main(["crop-apply", "--image", "img.msim", "--plan", "plan.csv",
                 "--index", "5", "--out", "o.msim"]) == 2


@pytest.fixture()
def crop_inputs(workdir):
    g = np.random.default_rng(6)
    img = g.random((512, 512, 3)).astype(np.float32)
    write_image_array("img.msim", img)
    (workdir / "cu.msdist").write_text(CU_TEXT)
    assert main(["plan", "--dist", "cu.msdist", "--n", "8", "--seed", "2",
                 "--out", "plan.csv"]) == 0
    return img


def _crop_apply(index):
    return main(["crop-apply", "--image", "img.msim", "--plan", "plan.csv",
                 "--index", str(index), "--out", "o.msim"])


@pytest.mark.parametrize("index", [8, -1, 2**63 - 1, 2**63, 10**20])
def test_crop_apply_index_without_entry_exits_2(crop_inputs, capsys, index):
    assert _crop_apply(index) == 2
    assert f"plan has no entry with index {index}" in capsys.readouterr().err


def test_crop_apply_bad_target_row_exits_2(crop_inputs, workdir, capsys):
    path = workdir / "plan.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[4] = lines[4].replace(",", ";", 1)
    path.write_text("".join(lines))
    assert _crop_apply(3) == 2
    assert "line 5: wrong number of plan columns" in capsys.readouterr().err


def test_crop_apply_upsampling_row_exits_2(crop_inputs, workdir, capsys):
    # resizing a 224 px crop to 4000 px would allocate with the square of a
    # number read from the file; a plan never upsamples, so the row is refused
    path = workdir / "plan.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[4] = "3,1.0,1.0,512,224,4000,0.0,0.0\n"
    path.write_text("".join(lines))
    assert _crop_apply(3) == 2
    assert "line 5: plan entry violates its invariants" in capsys.readouterr().err
    assert not (workdir / "o.msim").exists()


def test_crop_apply_ignores_bad_rows_elsewhere(crop_inputs, workdir):
    """crop-apply parses only its own row, so a bad row elsewhere in the plan
    does not fail it; the manifest still digests the whole file."""
    from magsample import apply_crop, read_image_array, read_plan_csv

    entry = read_plan_csv("plan.csv")[5]
    path = workdir / "plan.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = "1,x,1.0,512,336,224,0.0,0.0\n"
    path.write_text("".join(lines))
    assert _crop_apply(5) == 0
    assert np.array_equal(read_image_array("o.msim"), apply_crop(crop_inputs, entry))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert f"digest.plan sha256:{digest}\n" in (workdir / "o.msim.manifest.txt").read_text()


def _with_bad_byte(reader, before=1):
    """A CSV for ``reader`` whose line ``before + 2`` holds a byte that is not UTF-8."""
    header, rows, _ = CSV_READERS[reader]
    body = f"{header}\n" + f"{rows[0]}\r\n" * before
    return body.encode() + b"\xe9" + f"{rows[1]}\n".encode()


# Per reader: the input, the command that reads it, and the line the error names.
_NOT_UTF8_CASES = {
    "table": (_with_bad_byte("table"),
              ["kernel", "--kernel", "custom:bad.in", "--out", "k.csv"], 3),
    "embeddings": (_with_bad_byte("embeddings"),
                   ["rankme", "--embeddings", "bad.in", "--out", "r.csv"], 3),
    # line 3 is entry 1, the only line crop-apply decodes
    "plan": (_with_bad_byte("plan"),
             ["crop-apply", "--image", "img.msim", "--plan", "bad.in", "--index", "1",
              "--out", "o.msim"], 3),
    # past the first block that text mode decodes, which the header is read from
    "table-late": (_with_bad_byte("table", 1000),
                   ["kernel", "--kernel", "custom:bad.in", "--out", "k.csv"], 1002),
    "embeddings-late": (_with_bad_byte("embeddings", 1000),
                        ["rankme", "--embeddings", "bad.in", "--out", "r.csv"], 1002),
    "plan-late": (_with_bad_byte("plan", 1000),
                  ["crop-apply", "--image", "img.msim", "--plan", "bad.in", "--index", "1000",
                   "--out", "o.msim"], 1002),
    # a UTF-16 byte-order mark
    "msdist": (b"\xff\xfe" + CU_TEXT.encode("utf-16-le"),
               ["signal", "--dist", "bad.in", "--out", "s.csv"], 1),
}


@pytest.mark.parametrize("reader", sorted(_NOT_UTF8_CASES))
def test_input_that_is_not_utf8_exits_2(workdir, capsys, reader):
    data, argv, line = _NOT_UTF8_CASES[reader]
    (workdir / "bad.in").write_bytes(data)
    write_image_array("img.msim", np.zeros((512, 512, 1), dtype=np.float32))
    assert main(argv) == 2
    assert f"error: bad.in: line {line}: not UTF-8 text" in capsys.readouterr().err


def _csv(reader, row):
    header, rows, _ = CSV_READERS[reader]
    return f"{header}\n{row}\n{rows[1]}\n".encode()


def _mseb(mpp, vec):
    """A one-record .mseb file."""
    record = np.array([(mpp, vec)], [("mpp", "<f8"), ("vec", "<f4", (len(vec),))])
    return struct.pack("<4sHQI", b"MSEB", 1, 1, len(vec)) + record.tobytes()


_TABLE = "x,y,value\n0.25,0.25,1\n0.25,1.0,{}\n1.0,0.25,0.5\n1.0,1.0,1\n"

# Per input format: a malformed file in a subdirectory, the command that
# reads it, and the message after the file's name. The values cases parse,
# but make no kernel or embedding set.
_MALFORMED_INPUTS = {
    "msdist": (b"#msdist v1\nrange 0.25 2.0\natom 0.5\n",
               ["signal", "--dist", "in/bad", "--out", "s.csv"],
               "line 3: atom line needs location and weight"),
    "plan": (_csv("plan", "0,1.0,1.0,512,224"),
             ["crop-apply", "--image", "img.msim", "--plan", "in/bad", "--index", "0",
              "--out", "o.msim"], "line 2: wrong number of plan columns"),
    "embeddings": (_csv("embeddings", "p0,x,1.0,0.0"),
                   ["rankme", "--embeddings", "in/bad", "--out", "r.csv"],
                   "line 2: bad embedding entry"),
    "mseb": (struct.pack("<4sHQI", b"MSEB", 2, 1, 1),
             ["rankme", "--embeddings", "in/bad", "--out", "r.csv"],
             "unsupported embedding version 2"),
    "msim": (struct.pack("<4sIII", b"MSIM", 2, 2, 1),
             ["crop-apply", "--image", "in/bad", "--plan", "p.csv", "--index", "0",
              "--out", "o.msim"], "image payload is 0 bytes, expected 16"),
    "table values": (_TABLE.format("-0.5").encode(),
                     ["kernel", "--kernel", "custom:in/bad", "--grid", "11", "--out", "k.csv"],
                     "tabulated kernel values must be positive and finite"),
    "embeddings component": (_csv("embeddings", "p0,0.5,nan,0.0"),
                             ["rankme", "--embeddings", "in/bad", "--out", "r.csv"],
                             "embedding vectors contain non-finite values"),
    "embeddings mpp": (_csv("embeddings", "p0,-0.5,1.0,0.0"),
                       ["rankme", "--embeddings", "in/bad", "--out", "r.csv"],
                       "mpp tags must be positive and finite"),
    "mseb component": (_mseb(0.5, [np.nan, 1.0]),
                       ["similarity", "--embeddings", "in/bad", "--out", "s.csv"],
                       "embedding vectors contain non-finite values"),
    "mseb mpp": (_mseb(0.0, [1.0, 0.0]),
                 ["rankme", "--embeddings", "in/bad", "--out", "r.csv"],
                 "mpp tags must be positive and finite"),
}


@pytest.mark.parametrize("kind", sorted(_MALFORMED_INPUTS))
def test_format_error_names_its_file(workdir, capsys, kind):
    data, argv, message = _MALFORMED_INPUTS[kind]
    (workdir / "in").mkdir()
    (workdir / "in" / "bad").write_bytes(data)
    write_image_array("img.msim", np.zeros((512, 512, 1), dtype=np.float32))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"magsample {argv[0]}: error: in/bad: {message}\n"


@pytest.mark.parametrize("argv", [
    ["signal", "--dist", "du.msdist", "--out", "du.msdist"],
    ["signal", "--dist", "du.msdist", "--out", "p.csv", "--summary-out", "./du.msdist"],
    ["signal", "--dist", "du.msdist", "--kernel", "custom:t.csv", "--out", "t.csv"],
    ["compare", "--out", "sub/../cu.msdist", "du.msdist", "cu.msdist"],
    ["plan", "--dist", "du.msdist", "--n", "4", "--out", "du.msdist"],
    ["plan", "--dist", "du.msdist", "--n", "4", "--out", "link.msdist"],
], ids=["signal out", "signal summary-out", "signal table", "compare", "plan", "plan link"])
def test_output_that_is_an_input_exits_2(workdir, capsys, argv):
    (workdir / "sub").mkdir()
    (workdir / "t.csv").write_text(_TABLE.format("0.5"))
    os.symlink("du.msdist", workdir / "link.msdist")
    before = {p: p.read_bytes() for p in workdir.iterdir() if p.is_file()}
    assert main(argv) == 2
    assert "is the input file" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in workdir.iterdir() if p.is_file()} == before


def test_signal_out_that_is_its_summary_out_exits_2(workdir, capsys):
    assert main(["signal", "--dist", "du.msdist", "--out", "s.csv",
                 "--summary-out", "./s.csv"]) == 2
    assert "--out and --summary-out are the same file" in capsys.readouterr().err
    assert not (workdir / "s.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["signal", "--dist", "du.msdist", "--out", "s.csv", "--summary-out", "s.csv.manifest.txt"],
     "--summary-out and the manifest of --out are the same file s.csv.manifest.txt"),
    (["kernel", "--kernel", "custom:k.csv.manifest.txt", "--out", "k.csv"],
     "output k.csv.manifest.txt is the input file k.csv.manifest.txt"),
], ids=["signal summary-out", "kernel table"])
def test_manifest_that_is_an_output_or_an_input_exits_2(workdir, capsys, argv, message):
    (workdir / "k.csv.manifest.txt").write_text(_TABLE.format("0.5"))
    before = {p: p.read_bytes() for p in workdir.iterdir() if p.is_file()}
    assert main(argv) == 2
    assert capsys.readouterr().err == f"magsample {argv[0]}: error: {message}\n"
    assert {p: p.read_bytes() for p in workdir.iterdir() if p.is_file()} == before


@pytest.mark.parametrize(
    "error, code",
    [
        (ParameterError, 2),
        (FormatError, 2),
        (RangeError, 2),
        (FeasibilityError, 2),
        (FileNotFoundError, 2),
        (IsADirectoryError, 2),
        (PermissionError, 2),
        (DomainError, 1),
        (DegenerateInputError, 1),
        (ShapeError, 1),
        (SolverError, 1),
        (MagsampleError, 1),
    ],
)
def test_exit_code_of_each_error_class(workdir, monkeypatch, capsys, error, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_kernel", fail)
    assert main(["kernel", "--out", "x.csv"]) == code
    assert "boom" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(workdir):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_console_entry_point(workdir):
    env = child_env()
    out = subprocess.run(
        [sys.executable, "-m", "magsample.cli", "kernel", "--grid", "11",
         "--out", "c.csv"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert (workdir / "c.csv").exists()


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, magsample.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
