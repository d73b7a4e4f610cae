from pathlib import Path

import numpy as np
import pytest

from magsample import (
    FormatError,
    MagRange,
    ParameterError,
    RangeError,
    SamplingDistribution,
    format_distribution,
    parse_distribution,
    read_distribution,
    write_distribution,
)
from magsample.cli import main

from conftest import bin_masses


def test_constructor_normalizes_mass(mag_range):
    d = SamplingDistribution(mag_range, atoms=[(0.5, 2.0), (1.0, 2.0)])
    assert np.allclose(d.atom_weights, [0.5, 0.5])
    assert abs(d.atom_weights.sum() - 1.0) <= 1e-9

    d = SamplingDistribution(mag_range, atoms=[(1.0, 1.0)], density=np.ones(4))
    assert d.atom_weights[0] + d.density.sum() * d.cell_width == pytest.approx(1.0, abs=1e-12)


def test_constructor_sorts_atoms(mag_range):
    d = SamplingDistribution(mag_range, atoms=[(2.0, 0.25), (0.25, 0.75)])
    assert np.array_equal(d.atom_locations, [0.25, 2.0])
    assert np.array_equal(d.atom_weights, [0.75, 0.25])


def test_distributions_of_different_sizes_are_unequal(mag_range):
    two = SamplingDistribution.discrete(mag_range, [0.25, 0.5])
    three = SamplingDistribution.discrete(mag_range, [0.25, 0.5, 1.0])
    assert two != three and three != two
    assert two == SamplingDistribution.discrete(mag_range, [0.25, 0.5])
    assert SamplingDistribution.uniform(mag_range, 2) != SamplingDistribution.uniform(mag_range, 3)
    assert SamplingDistribution.uniform(mag_range, 2) != two


def test_constructor_validation(mag_range):
    with pytest.raises(RangeError):
        SamplingDistribution(mag_range, atoms=[(0.1, 1.0)])
    with pytest.raises(ParameterError):
        SamplingDistribution(mag_range, atoms=[(0.5, -0.1)])
    with pytest.raises(ParameterError):
        SamplingDistribution(mag_range, density=[-1.0, 2.0])
    with pytest.raises(ParameterError):
        SamplingDistribution(mag_range)  # no mass at all
    with pytest.raises(ParameterError):
        SamplingDistribution(mag_range, density=np.zeros(5))
    for atom in ((float("nan"), 1.0), (0.5, float("inf"))):
        with pytest.raises(ParameterError, match="^atom locations and weights must be finite$"):
            SamplingDistribution(mag_range, atoms=[atom])
    for density in (np.ones((2, 3)), []):
        with pytest.raises(ParameterError, match="^density must be a 1-D sequence of cell values$"):
            SamplingDistribution(mag_range, density=density)


@pytest.mark.parametrize("atom", ["nan 1", "0.5 inf"])
def test_non_finite_atom_in_a_file_exits_2(atom, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("bad.msdist").write_text(_HEAD + f"atom {atom}\n", encoding="utf-8")
    assert main(["signal", "--dist", "bad.msdist", "--out", "p.csv"]) == 2
    assert capsys.readouterr().err == (
        "magsample signal: error: atom locations and weights must be finite\n"
    )


def test_cell_width_needs_a_density(du_dist):
    with pytest.raises(ParameterError, match="^distribution has no density part$"):
        du_dist.cell_width


def test_uniform_density_value(mag_range):
    for cells in (1, 7, 100):
        d = SamplingDistribution.uniform(mag_range, cells)
        assert np.allclose(d.density, 1.0 / 1.75)


def test_density_at(mag_range):
    d = SamplingDistribution(mag_range, density=[1.0, 3.0])
    lo, hi = d.density
    assert d.density_at(0.3) == lo
    assert d.density_at(1.9) == hi
    assert d.density_at(1.125) == hi  # cells are [left, right) except the last
    assert d.density_at(2.0) == hi
    with pytest.raises(RangeError):
        d.density_at(0.2)
    du = SamplingDistribution.discrete(mag_range, [0.5])
    assert du.density_at(1.0) == 0.0


def test_quantile_uniform_median(cu_dist):
    assert cu_dist.quantile(0.5) == 1.125
    assert cu_dist.quantile(0.0) == 0.25
    assert cu_dist.quantile(1.0) == 2.0


def test_quantile_atoms(du_dist, mag_range):
    assert du_dist.quantile(0.0) == 0.25
    assert du_dist.quantile(0.2499) == 0.25
    assert du_dist.quantile(0.26) == 0.5
    assert du_dist.quantile(0.51) == 1.0
    assert du_dist.quantile(0.9999) == 2.0
    assert du_dist.quantile(1.0) == 2.0
    single = SamplingDistribution.discrete(mag_range, [0.5])
    for u in (0.0, 0.3, 0.999, 1.0):
        assert single.quantile(u) == 0.5


def test_quantile_mixed_hand_case(mag_range):
    # atom weight 0.5 at x=1 plus uniform density of raw mass 1.75;
    # normalization is by 2.25, so the density is 4/9 per mpp and the
    # CDF jumps from 1/3 to 5/9 at x=1.
    d = SamplingDistribution(mag_range, atoms=[(1.0, 0.5)], density=np.ones(4))
    assert d.quantile(0.3) == pytest.approx(0.25 + 0.3 * 2.25, abs=1e-12)
    assert d.quantile(1.0 / 3.0) == pytest.approx(1.0, abs=1e-12)
    assert d.quantile(0.45) == 1.0
    assert d.quantile(5.0 / 9.0) == pytest.approx(1.0, abs=1e-12)
    assert d.quantile(0.74) == pytest.approx(1.415, abs=1e-12)


def test_quantile_vectorized_matches_scalar(mag_range):
    d = SamplingDistribution(mag_range, atoms=[(0.5, 0.25)], density=[1.0, 0.0, 2.0])
    us = np.linspace(0.0, 1.0, 101)
    vec = d.quantile(us)
    assert np.array_equal(vec, np.array([d.quantile(float(u)) for u in us]))


@pytest.mark.parametrize(
    "dist, want",
    [
        (SamplingDistribution(MagRange(), atoms=[(0.3, 0.0), (1.0, 1.0)]), 1.0),
        (SamplingDistribution(MagRange(), atoms=[(0.3, 0.0)], density=[0, 1, 1, 1]), 0.6875),
        (SamplingDistribution(MagRange(), atoms=[(0.5, 1), (1.0, 1)], density=[0, 0, 0]), 0.5),
    ],
    ids=["zero-weight-atom", "zero-weight-atom-before-density", "zero-density"],
)
def test_quantile_0_is_the_first_point_with_mass(dist, want):
    # an atom of no weight or a cell of no density is not in the support
    assert dist.quantile(0.0) == want
    assert dist.quantile(1e-18) == want


def test_quantile_rejects_bad_input(cu_dist):
    for u in (-0.1, 1.1, float("nan")):
        with pytest.raises(ParameterError):
            cu_dist.quantile(u)


def test_cdf_before(du_dist, cu_dist):
    assert du_dist.cdf_before(0.25) == 0.0
    assert du_dist.cdf_before(0.26) == 0.25
    assert du_dist.cdf_before(2.0) == 0.75
    assert du_dist.cdf_before(2.5) == 1.0
    assert cu_dist.cdf_before(1.125) == pytest.approx(0.5, abs=1e-12)


def test_cdf_ends_at_one_on_narrow_offset_range():
    # the knots of a 1e-3-wide range at 2.2 are rounded far more coarsely
    # than its cell width, so their spacing alone would give mass 1 + 1.3e-12
    d = SamplingDistribution(MagRange(2.2, 2.201), density=[0, 0, 0, 0, 1, 0])
    assert abs(d.cdf_before(2.201) - 1.0) <= 1e-12
    assert d.cdf_before(d.quantile(1.0)) <= 1.0 + 1e-12
    assert bin_masses(d, d.cell_edges()).sum() == pytest.approx(1.0, abs=1e-12)


def test_bin_masses(du_dist, cu_dist):
    edges = np.linspace(0.25, 2.0, 21)
    m = bin_masses(cu_dist, edges)
    assert np.allclose(m, 0.05)
    m = bin_masses(du_dist, edges)
    assert m.sum() == pytest.approx(1.0, abs=1e-12)
    # atoms at 0.25, 0.5, 1.0 land in bins 0, 2, 8; the atom at 2.0 is on
    # the closed right edge of the last bin
    assert np.flatnonzero(m).tolist() == [0, 2, 8, 19]


@pytest.mark.parametrize(
    "edges", [[0.25, 1.0, 1.0, 2.0], [2.0, 0.25], [1.0], [[0.25, 2.0]]],
    ids=["repeated", "decreasing", "one-edge", "2-d"],
)
def test_bin_masses_rejects_edges_that_do_not_increase(cu_dist, edges):
    with pytest.raises(ParameterError, match="^bin edges must be strictly increasing$"):
        bin_masses(cu_dist, edges)


def test_bin_masses_atom_on_interior_edge(mag_range):
    d = SamplingDistribution(mag_range, atoms=[(1.125, 1.0)])
    m = bin_masses(d, np.array([0.25, 1.125, 2.0]))
    assert np.allclose(m, [0.0, 1.0])  # half-open bins put the atom on the right


def test_format_roundtrip(tmp_path, mag_range, du_dist):
    mixed = SamplingDistribution(
        mag_range, atoms=[(0.5, 0.125), (1.5, 0.125)], density=np.linspace(0.1, 1.0, 13)
    )
    for dist in (du_dist, SamplingDistribution.uniform(mag_range, 9), mixed):
        path = tmp_path / "d.msdist"
        write_distribution(dist, path, comments=["achieved_t 0.5"])
        assert read_distribution(path) == dist


def test_parse_accepts_comments_and_blank_lines():
    text = "#msdist v1\n\n# a comment\nrange 0.25 2.0\natom 0.5 1.0\n"
    d = parse_distribution(text)
    assert d.atom_locations[0] == 0.5


def test_parse_density_spans_lines():
    text = "#msdist v1\nrange 0.25 2.0\ndensity 5\n1 2\n3\n4 5\n"
    d = parse_distribution(text)
    assert d.cells == 5


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as err:
        parse_distribution("")
    assert err.value.line == 1

    with pytest.raises(FormatError) as err:
        parse_distribution("#msdist v2\n")
    assert err.value.line == 1

    with pytest.raises(FormatError) as err:
        parse_distribution("#msdist v1\nrange 0.25 2.0\natom nope 1\n")
    assert err.value.line == 3

    with pytest.raises(FormatError) as err:
        parse_distribution("#msdist v1\nrange 0.25 2.0\ndensity 3\n1 2\n")
    assert "missing" in str(err.value)

    with pytest.raises(FormatError) as err:
        parse_distribution("#msdist v1\nrange 0.25 2.0\nwhat 1 2\n")
    assert err.value.line == 3

    with pytest.raises(FormatError):
        parse_distribution("#msdist v1\nrange 0.25 2.0\ndensity 1\n1 2\n")

    with pytest.raises(FormatError):
        parse_distribution("#msdist v1\nrange 0.25 2.0\ndensity 1\n1\natom 0.5 1\n")

    with pytest.raises(FormatError):
        parse_distribution("#msdist v1\natom 0.5 1\n")


@pytest.mark.parametrize(
    "block, line, message",
    [
        ("density 2 1.0 x\n", 3, "bad density value 'x'"),
        ("density 2\n1.0 x\n", 4, "bad density value 'x'"),
        ("density 1 1.0 2.0\n", 3, "unexpected token"),
        ("density 2\n1.0\n2.0 3.0\n", 5, "unexpected token"),
    ],
)
def test_density_token_errors_carry_line_numbers(block, line, message):
    # tokens on the density line and on continuation lines are read alike
    with pytest.raises(FormatError, match=message) as err:
        parse_distribution("#msdist v1\nrange 0.25 2.0\n" + block)
    assert err.value.line == line


_HEAD = "#msdist v1\nrange 0.25 2.0\n"


_FORMAT_ERRORS = {
    "duplicate-range": (_HEAD + "range 0.25 2.0\n", 3, "duplicate range line"),
    "range-arity": ("#msdist v1\nrange 0.25\n", 2, "range line needs two bounds"),
    "range-bounds": ("#msdist v1\nrange 2.0 0.25\n", 2,
                     "magnification range requires 0 < a < b, got [2.0, 0.25]"),
    "atom-arity": (_HEAD + "atom 0.5\n", 3, "atom line needs location and weight"),
    "atom-before-range": ("#msdist v1\natom 0.5 1\n", 2, "atom before range line"),
    "density-before-range": ("#msdist v1\ndensity 1\n1\n", 2, "density before range line"),
    "duplicate-density": (_HEAD + "density 1\n1\ndensity 1\n1\n", 5, "duplicate density block"),
    "no-cell-count": (_HEAD + "density\n", 3, "density line needs a cell count"),
    "bad-cell-count": (_HEAD + "density x\n", 3, "bad density cell count 'x'"),
    "zero-cells": (_HEAD + "density 0\n", 3, "density cell count must be >= 1"),
    "missing-range": ("#msdist v1\n# no range\n", None, "missing range line"),
    # a form feed, \x1c, \x85 or \u2028 ends no line: it is whitespace
    "form-feed-in-comment": (_HEAD + "# note\x0cmore\natom x 1\n", 4, "bad atom numbers"),
    "breaks-in-comment": (_HEAD + "# a\x85b\u2028c\x1cd\natom x 1\n", 4, "bad atom numbers"),
    "form-feed-in-density": (_HEAD + "density 3\n1.0\x0c2.0\nx\n", 5, "bad density value 'x'"),
}


@pytest.mark.parametrize("name", list(_FORMAT_ERRORS))
def test_each_format_error_names_its_line(name, tmp_path, monkeypatch, capsys):
    text, line, message = _FORMAT_ERRORS[name]
    with pytest.raises(FormatError) as err:
        parse_distribution(text)
    assert err.value.line == line
    where = "" if line is None else f"line {line}: "
    assert str(err.value) == where + message
    monkeypatch.chdir(tmp_path)
    Path("bad.msdist").write_text(text, encoding="utf-8")
    assert main(["signal", "--dist", "bad.msdist", "--out", "p.csv"]) == 2
    assert capsys.readouterr().err == f"magsample signal: error: bad.msdist: {where}{message}\n"


@pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"])
def test_lines_end_only_at_newlines(newline):
    text = _HEAD + "# note\x0cmore\ndensity 3\n1.0\x0c2.0\u20283.0\n"
    d = parse_distribution(text.replace("\n", newline))
    assert d.density.tolist() == parse_distribution(_HEAD + "density 3 1 2 3\n").density.tolist()


def test_format_full_precision(mag_range):
    d = SamplingDistribution(mag_range, atoms=[(1.0 / 3.0 + 0.25, 1.0)], density=[0.1, 0.7])
    assert parse_distribution(format_distribution(d)) == d
