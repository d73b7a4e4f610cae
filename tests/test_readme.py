"""README's runnable blocks: the "Command line" block and the "Library quick
start" run as written, on input files made here, in a temp directory. The
binary headers that "File formats" states are read back from the code."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from magsample import (
    EmbeddingSet,
    MagRange,
    SamplingDistribution,
    read_image_array,
    write_distribution,
    write_image_array,
)
from magsample.cli import main
from magsample.rankme import (
    _EMB_HEADER,
    _EMB_MAGIC,
    _EMB_VERSION,
    _emb_record,
)
from magsample.sampler import _IMAGE_HEADER, _IMAGE_MAGIC

from conftest import write_embeddings_binary

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _section(section: str) -> str:
    return README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]


def _block(section: str, language: str) -> str:
    """The first fenced ``language`` block of the README section ``section``."""
    body = _section(section)
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def _commands():
    """(argv, documented headers) of each command of the "Command line"
    block; a command's headers are the parenthesized groups of the comment
    above it, which holds for every command up to the next comment."""
    text = _block("Command line", "sh").replace("\\\n", " ")
    commands, comment, headers = [], [], []
    for line in text.splitlines():
        if line.startswith("#"):
            comment.append(line[1:])
        elif line.strip():
            if comment:
                headers, comment = re.findall(r"\(([^()]*)\)", " ".join(comment)), []
            argv = shlex.split(line)
            assert argv[0] == "magsample", line
            commands.append((argv[1:], headers))
    return commands


def _outputs(argv):
    """The files a command writes besides manifests, in the order its
    documented headers name them: ``--out``, then a signal's summary."""
    out = argv[argv.index("--out") + 1]
    if argv[0] == "signal":
        return [out, str(Path(out).with_suffix("")) + ".summary.csv"]
    return [out]


def _header_pattern(documented: str) -> str:
    """A documented header as a regex; ``<...>`` stands for any cells."""
    parts = re.split(r"<[^<>]+>", documented)
    return "[^\n]+".join(map(re.escape, parts))


@pytest.fixture()
def readme_inputs(tmp_path, monkeypatch):
    """The input files the "Command line" block names, in a temp directory."""
    monkeypatch.chdir(tmp_path)
    mag_range = MagRange()
    write_distribution(SamplingDistribution.discrete(mag_range, [0.25, 0.5, 1.0, 2.0]),
                       "du.msdist")
    write_distribution(SamplingDistribution.uniform(mag_range), "cu.msdist")
    rng = np.random.default_rng(5)
    write_image_array("patch.msim", rng.random((512, 512, 3), dtype=np.float32))
    mpps = np.repeat([0.25, 0.5, 1.0], 6)
    vectors = rng.standard_normal((mpps.size, 4)).astype(np.float32)
    write_embeddings_binary("embeddings.mseb", EmbeddingSet(mpps=mpps, vectors=vectors))
    rows = [f"p{i},{m!r}," + ",".join(map(repr, v.tolist()))
            for i, (m, v) in enumerate(zip(mpps.tolist(), vectors))]
    Path("embeddings.csv").write_text("id,mpp,d0,d1,d2,d3\n" + "\n".join(rows) + "\n")
    return tmp_path


def test_command_line_block_runs_and_writes_the_documented_headers(readme_inputs):
    commands = _commands()
    assert [argv[0] for argv, _ in commands] == [
        "kernel", "signal", "optimize", "optimize", "compare", "plan", "crop-apply",
        "rankme", "similarity",
    ]
    checked = 0
    for argv, headers in commands:
        assert main(argv) == 0, argv
        outputs = _outputs(argv)
        for path in outputs:
            assert (readme_inputs / f"{path}.manifest.txt").is_file()
        if argv[0] == "crop-apply":  # a raw array, not text
            assert headers == []
            assert read_image_array(outputs[0]).shape == (224, 224, 3)
            continue
        assert len(headers) == len(outputs), argv
        for documented, path in zip(headers, outputs):
            with open(path, encoding="utf-8", newline="") as f:
                first = f.readline()
            assert re.fullmatch(_header_pattern(documented), first.rstrip("\n")), (path, first)
            checked += 1
    assert checked == 9


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("Library quick start", "python"), "README quick start", "exec"), {})
    summary, plan = capsys.readouterr().out.splitlines()
    assert summary.startswith("SignalSummary(min_value=")
    assert re.fullmatch(r"1000 \(0, [^()]*\) \d+", plan)  # len, plan[0], the largest crop


_WIDTHS = {"H": "u16", "I": "u32", "Q": "u64"}


def _header_fields(header, names):
    """``<type> <name>`` of each field after a binary header's 4-byte magic."""
    assert header.format[:3] == "<4s"  # little-endian, the magic first
    return ", ".join(f"{_WIDTHS[code]} {name}" for code, name in zip(header.format[3:], names))


@pytest.mark.parametrize("dim", [1, 384])
def test_file_formats_state_the_binary_headers(dim):
    text = " ".join(_section("File formats").split())
    assert (f"{_IMAGE_HEADER.size}-byte header (magic `{_IMAGE_MAGIC.decode()}`, "
            f"{_header_fields(_IMAGE_HEADER, ['height', 'width', 'channels'])}, "
            "little-endian)") in text
    record = _emb_record(dim)
    mpp, vec = record["mpp"], record["vec"]
    assert record.itemsize == 8 + 4 * dim and vec.shape == (dim,)
    assert mpp.str == "<f8" and vec.base.str == "<f4"
    fields = _header_fields(_EMB_HEADER, ["version", "N", "K"])
    assert (f"magic `{_EMB_MAGIC.decode()}`, "
            f"{fields.replace('version', f'version ({_EMB_VERSION})')}, then N records "
            f"of (f{8 * mpp.itemsize} mpp, K float{8 * vec.base.itemsize} components), "
            "little-endian") in text
