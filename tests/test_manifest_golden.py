"""Every subcommand's manifest, pinned byte for byte on fixed inputs.

The inputs are small literal files, so their digests never move. The
expected texts were written by the per-subcommand manifest code that
preceded the generic one; any change to which parameters a manifest
records, how it formats them or which inputs it digests changes them.
"""

import numpy as np
import pytest

from magsample import __version__, write_image_array
from magsample.cli import main

INPUTS = {
    "du.msdist": "#msdist v1\nrange 0.25 2.0\n"
    "atom 0.25 0.25\natom 0.5 0.25\natom 1.0 0.25\natom 2.0 0.25\n",
    "cu.msdist": "#msdist v1\nrange 0.25 2.0\ndensity 1\n1.0\n",
    "table.csv": "x,y,value\n0.25,0.25,1.0\n0.25,2.0,0.5\n2.0,0.25,0.5\n2.0,2.0,1.0\n",
    "emb.csv": "id,mpp,d0,d1\np0,0.5,1.0,0.0\np1,0.5,0.0,1.0\np2,0.5,1.0,1.0\n"
    "p3,1.0,2.0,0.0\np4,1.0,0.0,1.0\np5,1.0,1.0,3.0\n",
    "plan.csv": "index,target_mpp,source_mpp,source_size_px,crop_size_px,"
    "output_size_px,offset_x_frac,offset_y_frac\n"
    "0,1.0,1.0,64,32,32,0.7457817572627011,0.9710027535867962\n"
    "1,0.5,0.5,64,32,32,0.44426470082635805,0.762894391911761\n",
}

DU = "sha256:1080e1761e07f4e3c6bcfca313f099e1e868c931ca49c05d06e8650afdec02e2"
CU = "sha256:de432c182b620dff5bf7c5c546021e8261d83a82251801888c18d06768f0d3b1"
TABLE = "sha256:84881c226df0824b66279e2f51f8b2a719346785a931f9d727b8b23fd7b064f8"
EMB = "sha256:0ffff5dd2d7da2ef618c11fc80ba97f0fe45a1d354703c69b37bb5ff74934d9d"
IMG = "sha256:828a59f23e6369e72cc5ac41fdd6831e76428da5784660e6ac07ccd5121a095e"
PLAN = "sha256:671f09ac2f08f773f1fb5d768b5c446c9c4ca6cc6cf7c5bc187030d48b3a022a"
VERSION = f"version {__version__}"

# name: (argv, outputs that get the manifest, expected manifest lines)
CASES = {
    "kernel-info": (
        ["kernel", "--grid", "11", "--out", "k.csv"],
        ["k.csv"],
        ["grid 11", "kernel info", "out k.csv", "range 0.25:2.0", "subcommand kernel",
         VERSION],
    ),
    "kernel-custom": (
        ["kernel", "--kernel", "custom:table.csv", "--range", "0.5:1.5", "--grid", "11",
         "--out", "kc.csv"],
        ["kc.csv"],
        [f"digest.kernel {TABLE}", "grid 11", "kernel custom:table.csv", "out kc.csv",
         "range 0.5:1.5", "subcommand kernel", VERSION],
    ),
    "signal": (
        ["signal", "--dist", "du.msdist", "--kernel", "abs", "--grid", "20", "--out", "s.csv"],
        ["s.csv", "s.summary.csv"],
        [f"digest.dist {DU}", "dist du.msdist", "grid 20", "kernel abs", "out s.csv",
         "subcommand signal", "summary_out s.summary.csv", VERSION],
    ),
    "compare": (
        ["compare", "--kernel", "custom:table.csv", "--grid", "20", "--out", "c.csv",
         "cu.msdist", "du.msdist"],
        ["c.csv"],
        [f"digest.0 {CU}", f"digest.1 {DU}", f"digest.kernel {TABLE}",
         "dists ['cu.msdist', 'du.msdist']", "grid 20",
         "kernel custom:table.csv", "out c.csv", "subcommand compare", VERSION],
    ),
    "optimize-maxmin": (
        ["optimize", "--objective", "maxmin", "--grid", "20", "--out", "mm.msdist"],
        ["mm.msdist"],
        ["grid 20", "kernel info", "lambda 1.0", "objective maxmin", "out mm.msdist",
         "range 0.25:2.0", "subcommand optimize", VERSION],
    ),
    "optimize-maxavg": (
        ["optimize", "--objective", "maxavg", "--lambda", "0.5", "--kernel", "abs",
         "--range", "0.5:1.5", "--grid", "20", "--out", "ma.msdist"],
        ["ma.msdist"],
        ["grid 20", "kernel abs", "lambda 0.5", "objective maxavg", "out ma.msdist",
         "range 0.5:1.5", "subcommand optimize", VERSION],
    ),
    "plan": (
        ["plan", "--dist", "du.msdist", "--n", "5", "--seed", "3", "--out", "p.csv"],
        ["p.csv"],
        [f"digest.dist {DU}", "dist du.msdist", "n 5", "out p.csv", "patch_size 224",
         "seed 3", "source_size 512", "standards 0.25,0.5,1.0,2.0", "subcommand plan", VERSION],
    ),
    "rankme": (
        ["rankme", "--embeddings", "emb.csv", "--out", "r.csv"],
        ["r.csv"],
        [f"digest.embeddings {EMB}", "embeddings emb.csv", "epsilon 1e-07",
         "group_tol 1e-06", "out r.csv", "subcommand rankme", VERSION],
    ),
    "similarity": (
        ["similarity", "--embeddings", "emb.csv", "--group-tol", "1e-05", "--out", "sim.csv"],
        ["sim.csv"],
        [f"digest.embeddings {EMB}", "embeddings emb.csv", "group_tol 1e-05", "out sim.csv",
         "subcommand similarity", VERSION],
    ),
    "crop-apply": (
        ["crop-apply", "--image", "img.msim", "--plan", "plan.csv", "--index", "1",
         "--out", "o.msim"],
        ["o.msim"],
        [f"digest.image {IMG}", f"digest.plan {PLAN}", "image img.msim", "index 1",
         "out o.msim", "plan plan.csv", "subcommand crop-apply", VERSION],
    ),
}

@pytest.fixture()
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8", newline="")
    image = (np.arange(64 * 64, dtype=np.float32) / 4096).reshape(64, 64, 1)
    write_image_array("img.msim", image)
    return tmp_path


@pytest.mark.parametrize("case", sorted(CASES))
def test_manifest_bytes(inputs, case):
    argv, outs, lines = CASES[case]
    assert main(argv) == 0
    expected = "".join(line + "\n" for line in lines).encode()
    for out in outs:
        assert (inputs / f"{out}.manifest.txt").read_bytes() == expected
