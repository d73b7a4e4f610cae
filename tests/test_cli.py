import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import magsample
from magsample import SamplingDistribution, write_distribution, write_image_array
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
from magsample.kernels import MagRange
from magsample.rankme import EmbeddingSet, write_embeddings_binary

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


def test_signal_command_range_mismatch(workdir, capsys):
    assert main(["signal", "--dist", "du.msdist", "--range", "0.5:1.5",
                 "--out", "p.csv"]) == 2
    assert "does not match" in capsys.readouterr().err
    assert main(["signal", "--dist", "du.msdist", "--range", "0.25:2.0",
                 "--out", "p.csv"]) == 0


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


def test_compare_duplicate_gives_identical_rows(workdir):
    assert main(["compare", "--out", "t.csv", "du.msdist", "du.msdist"]) == 0
    rows = _read_csv(workdir / "t.csv")
    assert rows[1] == rows[2]


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
    assert entry.crop_size_px == 224  # identity crop at a standard mpp
    expected = apply_crop(img, entry)
    assert np.array_equal(read_image_array("out.msim"), expected)


def test_crop_apply_missing_index(workdir, capsys):
    g = np.random.default_rng(5)
    write_image_array("img.msim", g.random((512, 512, 1)).astype(np.float32))
    write_distribution(SamplingDistribution(MagRange(), atoms=[(1.0, 1.0)]), "a.msdist")
    assert main(["plan", "--dist", "a.msdist", "--n", "1", "--out", "plan.csv"]) == 0
    assert main(["crop-apply", "--image", "img.msim", "--plan", "plan.csv",
                 "--index", "5", "--out", "o.msim"]) == 2


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
    # The child runs in the tmp dir, where a relative PYTHONPATH (such as
    # `src`) no longer resolves; put the directory holding the package this
    # process imported first, so the child imports the same copy.
    env = dict(os.environ)
    package_root = str(Path(magsample.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "magsample.cli", "kernel", "--grid", "11",
         "--out", "c.csv"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert (workdir / "c.csv").exists()
