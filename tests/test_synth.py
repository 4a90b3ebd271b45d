import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from casfit import synth
from casfit import (DatasetSpec, ParseError, algebraic_distance, load_points,
                    make_instance, orthogonal_distance, random_ellipsoid,
                    sample_surface, save_points, scaling_factor)
from casfit.synth import (CENTER_RANGE, LOAD_BLOCK_ROWS, OUTLIER_BOX_INFLATION,
                          SEMIAXIS_RANGE, _bounding_half_extents, random_rotation)

from reference_reader import reference_load_points


class TestRandomRotation:
    def test_proper_orthonormal(self, rng):
        for _ in range(200):
            r = random_rotation(rng)
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(r) - 1.0) < 1e-12

    def test_covers_orientations(self):
        # the rotated z axis should sweep the whole sphere, both hemispheres
        rng = np.random.default_rng(5)
        zs = np.array([random_rotation(rng)[:, 2] for _ in range(4000)])
        assert zs[:, 2].min() < -0.99 and zs[:, 2].max() > 0.99
        assert abs(zs.mean(axis=0)).max() < 0.05


class TestRandomEllipsoid:
    def test_parameter_ranges(self):
        rng = np.random.default_rng(17)
        lo, hi = SEMIAXIS_RANGE
        clo, chi = CENTER_RANGE
        ratios = []
        for _ in range(10_000):
            m = random_ellipsoid(rng)
            r = m.semiaxes
            assert (r >= lo).all() and (r <= hi).all()
            assert (m.center >= clo).all() and (m.center <= chi).all()
            ratios.append(r.max() / r.min())
        ratios = np.array(ratios)
        # the aspect-ratio spread must cover near-spheres and elongated bodies
        assert ratios.min() < 1.1
        assert ratios.max() > 4.0

    def test_deterministic(self):
        a = random_ellipsoid(np.random.default_rng(3))
        b = random_ellipsoid(np.random.default_rng(3))
        assert np.array_equal(a.coeffs, b.coeffs)


class TestSampleSurface:
    def test_membership(self, rng):
        for _ in range(20):
            m = random_ellipsoid(rng)
            pts = sample_surface(m, 500, rng)
            assert pts.shape == (500, 3)
            assert np.abs(algebraic_distance(pts, m)).max() < 1e-10
            assert np.abs(np.asarray(scaling_factor(pts, m)) - 1.0).max() < 1e-12

    def test_member_scale(self, rng):
        m = random_ellipsoid(rng)
        pts = sample_surface(m, 200, rng, scale=0.5)
        assert np.allclose(scaling_factor(pts, m), 0.5, atol=1e-12)

    def test_count_validation(self, rng):
        m = random_ellipsoid(rng)
        assert sample_surface(m, 0, rng).shape == (0, 3)
        with pytest.raises(ValueError):
            sample_surface(m, -1, rng)


class TestMakeInstance:
    def test_exact_outlier_count_and_ordering(self, rng):
        spec = DatasetSpec(kind="outlier", point_count=500, sigma_rel=0.25,
                           outlier_fraction=0.4)
        inst = make_instance(spec, rng)
        assert len(inst.points) == 500
        assert inst.is_outlier.sum() == 200
        assert not inst.is_outlier[:300].any()
        assert inst.is_outlier[300:].all()

    def test_gaussian_kind_has_no_outliers(self, rng):
        spec = DatasetSpec(kind="gaussian", point_count=100, sigma_rel=0.1)
        inst = make_instance(spec, rng)
        assert not inst.is_outlier.any()
        # a fraction the kind would report but not plant is refused
        with pytest.raises(ValueError, match="gaussian"):
            DatasetSpec(kind="gaussian", point_count=100, sigma_rel=0.1, outlier_fraction=0.4)

    def test_sigma_definition(self, rng):
        spec = DatasetSpec(kind="gaussian", point_count=50, sigma_rel=0.2)
        inst = make_instance(spec, rng)
        assert abs(inst.sigma - 0.2 * inst.truth.semiaxes.mean()) < 1e-12

    def test_noise_magnitude(self):
        # surface offsets of noisy inliers are half-normal with mean
        # sigma * sqrt(2 / pi); curvature bias is negligible at this noise
        rng = np.random.default_rng(99)
        spec = DatasetSpec(kind="gaussian", point_count=100_000, sigma_rel=0.01)
        inst = make_instance(spec, rng)
        d = np.asarray(orthogonal_distance(inst.points, inst.truth))
        expected = inst.sigma * math.sqrt(2.0 / math.pi)
        assert abs(d.mean() - expected) < 0.02 * expected

    def test_outliers_confined_to_inflated_box(self, rng):
        spec = DatasetSpec(kind="outlier", point_count=400, sigma_rel=0.1,
                           outlier_fraction=0.5)
        inst = make_instance(spec, rng)
        half = OUTLIER_BOX_INFLATION * _bounding_half_extents(inst.truth)
        off = np.abs(inst.points[inst.is_outlier] - inst.truth.center)
        assert (off <= half + 1e-12).all()
        # and they actually use the inflated region beyond the surface box
        assert (off > _bounding_half_extents(inst.truth)).any()

    def test_noise_free_points_lie_on_surface(self, rng):
        spec = DatasetSpec(kind="gaussian", point_count=64, sigma_rel=0.0)
        inst = make_instance(spec, rng)
        assert inst.sigma == 0.0
        assert np.abs(algebraic_distance(inst.points, inst.truth)).max() < 1e-10

    def test_deterministic(self):
        spec = DatasetSpec(kind="outlier", point_count=80, sigma_rel=0.25,
                           outlier_fraction=0.25)
        a = make_instance(spec, np.random.default_rng(21))
        b = make_instance(spec, np.random.default_rng(21))
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.truth.coeffs, b.truth.coeffs)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(kind="torus")
        with pytest.raises(ValueError):
            DatasetSpec(kind="outlier", outlier_fraction=1.5)
        with pytest.raises(ValueError):
            DatasetSpec(kind="gaussian", point_count=0)
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma_rel"):
                DatasetSpec(kind="gaussian", sigma_rel=bad)
        with pytest.raises(ValueError):
            DatasetSpec(kind="gaussian", instance_count=0)
        # numpy's seeding would refuse it only when an instance is drawn
        with pytest.raises(ValueError, match="seed must be non-negative"):
            DatasetSpec(kind="gaussian", seed=-1)

    @pytest.mark.parametrize("field", ["sigma_rel", "outlier_fraction"])
    @pytest.mark.parametrize("bad", [True, False, "0.25", None, [0.25]])
    def test_real_fields_take_only_numbers(self, field, bad):
        # a JSON true is no number: it would run, and be reported, as 1
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            DatasetSpec(kind="outlier", **{field: bad})
        spec = DatasetSpec(kind="outlier", **{field: np.float64(0.25)})
        assert getattr(spec, field) == 0.25


class TestPointFiles:
    def test_round_trip_is_exact(self, rng, tmp_path):
        pts = rng.uniform(-50, 50, size=(200, 3))
        pts[0] = [1.0 / 3.0, -2.0 / 7.0, 1e-17]
        path = tmp_path / "pts.csv"
        save_points(pts, path)
        assert np.array_equal(load_points(path), pts)
        text = path.read_text()
        assert text.splitlines()[0] == "x,y,z"

    def test_whitespace_and_comments(self, tmp_path):
        path = tmp_path / "loose.txt"
        path.write_text("# a comment\n1 2 3\n\n  4\t5 6\n# tail comment\n")
        assert np.array_equal(load_points(path),
                              np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))

    def test_header_tolerated_after_comments(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("# generated\nx,y,z\n1,2,3\n")
        assert np.array_equal(load_points(path), np.array([[1.0, 2.0, 3.0]]))

    @pytest.mark.parametrize("body, line_reader", [
        ("1,2,3\n4,5,6\n7,8,9\n", False), ("x,y,z\n1,2,3\n4,5,6\n7,8,9\n", False),
        ("# note\n1,2,3\n4,5,6\n7,8,9\n", True), ("x y z\n# note\n1 2 3\n4 5 6\n7 8 9\n", True),
    ])
    def test_byte_order_mark_is_not_a_header(self, tmp_path, monkeypatch, body, line_reader):
        # a UTF-8 BOM used to make the first line non-numeric, so the
        # first point was taken for a header
        calls = []
        read_lines = synth._read_lines
        monkeypatch.setattr(synth, "_read_lines",
                            lambda path, text: calls.append(path) or read_lines(path, text))
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + body.encode())
        assert np.array_equal(load_points(path), np.arange(1.0, 10.0).reshape(3, 3))
        assert bool(calls) == line_reader

    def test_parse_errors(self, tmp_path):
        cases = {
            "two_cols.csv": "1,2\n",
            "late_text.csv": "1,2,3\nx,y,z\n",
            "double_header.csv": "x,y,z\na,b,c\n1,2,3\n",
            "empty.csv": "# nothing\n",
            "nonfinite.csv": "1,2,nan\n",
        }
        for name, body in cases.items():
            path = tmp_path / name
            path.write_text(body)
            with pytest.raises(ParseError):
                load_points(path)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_bytes_that_are_not_utf8_name_the_offset(self, tmp_path, bom):
        path = tmp_path / "latin.csv"
        path.write_bytes(bom + b"x,y,z\n1,2,3\n# caf\xe9\n4,5,6\n")  # byte 17 past the mark
        with pytest.raises(ParseError, match=f"latin.csv: byte {len(bom) + 17}: not UTF-8"):
            load_points(path)

    def test_error_names_offending_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z\n1,2,3\n4,5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_points(path)

    def test_files_longer_than_one_block(self, rng, tmp_path):
        # save_points writes a block of rows at a time; neither the points
        # nor the line an error names depend on where blocks begin
        pts = rng.normal(size=(2 * LOAD_BLOCK_ROWS + 5, 3))
        path = tmp_path / "big.csv"
        save_points(pts, path)
        assert np.array_equal(load_points(path), pts)
        lines = path.read_text().splitlines()  # a header, then one line per point
        for row in (0, LOAD_BLOCK_ROWS - 1, LOAD_BLOCK_ROWS, 2 * LOAD_BLOCK_ROWS + 4):
            for bad, expect in (("1,2,oops", "could not parse '1,2,oops'"),
                                ("1,2", "expected 3 columns")):
                edited = lines.copy()
                edited[1 + row] = bad
                path.write_text("\n".join(edited + ["4,5"]) + "\n")
                with pytest.raises(ParseError, match=f"line {row + 2}: {expect}"):
                    load_points(path)


def read_both(path):
    """What load_points and the reference line reader make of ``path``."""
    outcomes = []
    for read in (load_points, reference_load_points):
        try:
            outcomes.append(read(path))
        except (ParseError, ValueError) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def assert_same_as_reference(path):
    got, want = read_both(path)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), got
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # -0.0 too
    else:
        assert got == want


# Line pieces: numbers in the spellings files use, and the tokens that
# send a file to the line reader or make it fail there.
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "-0", "+1", "1e5", "-2.5E-3", "+.5", "5.", "1e+05", "1E999"]))
# Non-ASCII digits parse as floats, and str.split() splits on the non-ASCII
# and ASCII control separators; the numpy pass takes none of them.
JUNK = st.sampled_from(["nan", "1_0", "inf", "x", "1e", "e", ".", "+", "-", "#", "#1", "",
                        "\uff11", "\u0663"])
SEPARATORS = st.sampled_from([",", " ", "\t", ", ", " ,", ",,", "  ", " \t",
                              "\xa0", "\x0b", "\x0c", "\x1c", "\x85"])
SPECIAL_LINES = st.sampled_from(["", " ", "\t", "x,y,z", "x y z", "# note", "#", ",", ",,",
                                 " , ", "a,b,c"])


@st.composite
def data_lines(draw):
    count = draw(st.sampled_from([3, 3, 3, 3, 2, 4, 1]))
    fields = draw(st.lists(st.one_of(NUMBERS, NUMBERS, NUMBERS, JUNK),
                           min_size=count, max_size=count))
    line = draw(SEPARATORS).join(fields)
    if draw(st.booleans()):
        line = draw(st.sampled_from([" ", "\t", ","])) + line
    if draw(st.booleans()):
        line += draw(st.sampled_from([" ", "\t", ","]))
    return line


@st.composite
def point_texts(draw):
    if draw(st.booleans()):  # one separator and three numbers a line, as most files are
        sep = draw(st.sampled_from([",", " ", "\t", ", "]))
        lines = [sep.join(fields) for fields in draw(st.lists(
            st.lists(NUMBERS, min_size=3, max_size=3), max_size=12))]
    else:
        lines = draw(st.lists(st.one_of(data_lines(), data_lines(), data_lines(), SPECIAL_LINES),
                              max_size=12))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["x,y,z", "x y z", "a,b", "1,2,3", "\u03b1,\u03b2,\u03b3",
                                              "\uff11,\uff12,\uff13"])))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(lines)
    return text + ending if draw(st.booleans()) else text


class TestReaderEquivalence:
    """load_points reads every file as the line-by-line reference reader does."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=point_texts())
    def test_texts_read_as_the_reference_reads_them(self, tmp_path, text):
        path = tmp_path / "pts.txt"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert_same_as_reference(path)

    @pytest.mark.parametrize("body", [
        "x,y,z\n1,2,3\n", "1 2 3", "1,2,3\r\n4,5,6\r\n", "1,2,3\r4,5,6\r",
        "# a comment\n1 2 3\n\n  4\t5 6\n# tail comment\n", "# generated\nx,y,z\n1,2,3\n",
        "1,2\n", "1,2,3\nx,y,z\n", "x,y,z\na,b,c\n1,2,3\n", "# nothing\n", "", "\n\n",
        "1,2,nan\n", "1,2,1e999\n", "x,y,z\n1,2,3\n4,5\n", "1,,2,3\n", "1,2,3,\n",
        "1 2,3\n", "1,2,3\n,,\n4,5,6\n", "1,2,3\n\n4,5,6\n", "x,y,z\n", "1_0,2,3\n",
        " 1 , 2 , 3 \n", "1\t2\t3\n", "1,2,3\n4,5,6,7\n", "+.5,-5.,1E+3\n",
        "\u03b1,\u03b2,\u03b3\n1,2,3\n", "x,y,z\n1,\uff12,3\n", "1\xa02\xa03\n", "1\x0b2 3\n",
    ])
    def test_hand_made_files(self, tmp_path, body):
        path = tmp_path / "hand.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
        assert_same_as_reference(path)

    def test_block_boundaries(self, rng, tmp_path):
        path = tmp_path / "big.csv"
        save_points(rng.normal(size=(2 * LOAD_BLOCK_ROWS + 5, 3)), path)
        lines = path.read_text().splitlines()
        assert_same_as_reference(path)
        for row in (0, 1, LOAD_BLOCK_ROWS - 1, LOAD_BLOCK_ROWS, 2 * LOAD_BLOCK_ROWS + 4):
            for bad in ("1,2,oops", "1,2", "", "# note", "1,2,nan", "x,y,z", "1 2 3"):
                edited = lines.copy()
                edited[1 + row] = bad
                path.write_text("\n".join(edited) + "\n")
                assert_same_as_reference(path)

    def test_saved_files_take_the_numpy_pass(self, rng, tmp_path, monkeypatch):
        calls = []
        line_reader = synth._read_lines

        def spy(path, text):
            calls.append(path)
            return line_reader(path, text)

        monkeypatch.setattr(synth, "_read_lines", spy)
        path = tmp_path / "saved.csv"
        pts = rng.normal(size=(LOAD_BLOCK_ROWS + 3, 3))
        save_points(pts, path)
        assert np.array_equal(load_points(path), pts)
        assert calls == []
        body = path.read_text().split("\n", 1)[1]
        path.write_text("\u03b1,\u03b2,\u03b3\n" + body, encoding="utf-8")  # only the body is vetted
        assert np.array_equal(load_points(path), pts)
        assert calls == []
        path.write_text("# a comment\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
        assert np.array_equal(load_points(path), pts)
        assert calls == [path]

    @pytest.mark.parametrize("body, numpy_pass", [
        ("1,2,3\n\n4,5,6\n", True), ("\n1,2,3\n4,5,6", True), ("x,y,z\n\n1,2,3\n", True),
        ("1,2,3\r\n\r\n4,5,6\r\n", True), ("1,2,3\n4,5,6\n\n", True),  # blank lines
        ("1 2 3\n \t \n4 5 6\n", True), ("\t\n1\t2\t3\n  ", True),  # whitespace-only lines
        ("1,2,3\n  \n4,5,6\n", False), ("1,2,3\n4,5,6\n\t", False),  # in comma files
        ("1,2,3\n,\n4,5,6\n", False), (",,\n1,2,3\n", False), ("1,2,3\n , , \n", False),
    ])
    def test_blank_lines(self, tmp_path, monkeypatch, body, numpy_pass):
        # both readers skip blank lines, so the numpy pass keeps the files
        # that have them; numpy raises on the other lines without a value
        calls = []
        line_reader = synth._read_lines

        def spy(path, text):
            calls.append(path)
            return line_reader(path, text)

        monkeypatch.setattr(synth, "_read_lines", spy)
        path = tmp_path / "blank.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
        assert_same_as_reference(path)
        assert (calls == []) == numpy_pass

    def test_numpy_skips_only_blank_lines(self, tmp_path):
        # synth._read_plain keeps np.loadtxt's rows without counting lines:
        # it relies on numpy skipping only the lines the line reader skips
        def load(text, delimiter):
            path = tmp_path / "pin.txt"
            path.write_text(text)
            return np.loadtxt(path, ndmin=2, comments=None, delimiter=delimiter).tolist()

        rows = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert load("1,2,3\n\n4,5,6\n\n", ",") == rows
        assert load("1 2 3\n \t \n\n4 5 6\n  ", None) == rows
        for line in (",", ",,", " , , ", "  ", "\t"):
            with pytest.raises(ValueError):
                load(f"1,2,3\n{line}\n4,5,6\n", ",")

    def test_save_points_bytes(self, rng, tmp_path):
        # blocks of rows, each row formatted as one %.17g line per point
        pts = rng.normal(size=(LOAD_BLOCK_ROWS + 3, 3)) * 10.0 ** rng.integers(-20, 20, (1, 3))
        path = tmp_path / "saved.csv"
        save_points(pts, path)
        want = "x,y,z\n" + "".join("%.17g,%.17g,%.17g\n" % tuple(row) for row in pts)
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("rows", [0, 1, LOAD_BLOCK_ROWS - 1, LOAD_BLOCK_ROWS,
                                      LOAD_BLOCK_ROWS + 1, 2 * LOAD_BLOCK_ROWS + 5])
    def test_save_points_bytes_edges_and_layouts(self, rng, tmp_path, rows):
        # save_points formats a block of rows per % operation; the bytes are
        # those of one f-string per row, in every layout numpy hands it
        edge = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 2.0, 0.1]
        pts = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-20, 20, (1, 3))
        pts.ravel()[:len(edge)] = edge[:pts.size]
        for layout in (pts, np.asfortranarray(pts), np.repeat(pts, 2, axis=0)[::2]):
            path = tmp_path / "saved.csv"
            save_points(layout, path)
            want = "x,y,z\n" + "".join(f"{x:.17g},{y:.17g},{z:.17g}\n"
                                        for x, y, z in pts.tolist())
            assert path.read_bytes() == want.encode()
