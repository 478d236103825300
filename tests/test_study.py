import json
import types

import numpy as np
import pytest

from hdgeig.basis import triangle_quadrature
from hdgeig.errors import ConfigError, UnsupportedModeError
from hdgeig.localsolve import MaterialSpec, TauSpec
from hdgeig.mesh import build_square_mesh
from hdgeig.study import (
    ConvergenceReport,
    StudyConfig,
    domain_modes,
    eigenfunction_error,
    emit_table,
    estimate_order,
    exact_lshape_values,
    exact_square_spectrum,
)
from hdgeig.recovery import postprocess, recover_fields


def l2_norm_on_square(func, level=4, order=12):
    """Quadrature L2 norm of a function on the square domain."""
    mesh = build_square_mesh(level)
    rule = triangle_quadrature(order)
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    b = np.stack(
        [
            mesh.vertices[mesh.triangles[:, 1]] - p0,
            mesh.vertices[mesh.triangles[:, 2]] - p0,
        ],
        axis=2,
    )
    pts = p0[:, None, :] + np.einsum("eab,qb->eqa", b, rule.points)
    wq = np.linalg.det(b)[:, None] * rule.weights[None, :]
    vals = func(pts[:, :, 0], pts[:, :, 1])
    return float(np.sqrt(np.sum(wq * vals**2)))


def reference_eigenfunction_error(sys, mode, *fields):
    """The error functional as it ran before the per-class mapping: the
    error rule mapped over the whole mesh through each element's own
    Jacobian, and the basis scaled element by element."""
    mesh = sys.mesh
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    bmats = np.stack([mesh.vertices[mesh.triangles[:, 1]] - p0,
                      mesh.vertices[mesh.triangles[:, 2]] - p0], axis=2)
    det = np.linalg.det(bmats)
    pts = p0[:, None, :] + np.einsum("eab,qb->eqa", bmats, sys.ref.err.points)
    wq = det[:, None] * sys.ref.err.weights
    norm2 = lambda f: np.einsum("eq,eq,eq->", wq, f, f)
    exact = mode.evaluator(pts[:, :, 0], pts[:, :, 1])
    exact /= np.sqrt(norm2(exact))
    tabs = {sys.ref.n_w: sys.ref.w_err, sys.ref.n_p: sys.ref.p_err}
    errors = []
    for coeffs in fields:
        vals = coeffs @ tabs[coeffs.shape[1]].T / np.sqrt(det)[:, None]
        vals /= np.sqrt(norm2(vals))
        errors.append(np.sqrt(min(norm2(vals - exact), norm2(vals + exact))))
    return errors


class TestExactReferences:
    def test_first_six_square_values(self):
        assert [m.value for m in exact_square_spectrum(6)] == [2, 5, 5, 8, 10, 10]

    def test_eleventh_value(self):
        assert exact_square_spectrum(11)[-1].value == 18

    def test_mode1_eigenfunction_peak(self):
        mode = exact_square_spectrum(1)[0]
        assert mode.evaluator(np.pi / 2, np.pi / 2) == pytest.approx(1.0)

    def test_multiplicities(self):
        modes = exact_square_spectrum(6)
        assert [m.multiplicity for m in modes] == [1, 2, 2, 1, 2, 2]
        assert modes[3].evaluator is not None  # mode 4 is simple
        assert modes[1].evaluator is None  # clustered pair

    @pytest.mark.parametrize("a,b,double", [
        (0.1, 0.2, (13,)), (0.7, 1.4, (13, 22, 29, 37)),
    ])
    def test_round_off_doubles(self, a, b, double):
        # 0.1 * 5^2 + 0.2 * 2^2 and 0.1 * 1^2 + 0.2 * 4^2 are both 3.3 but
        # differ in the last bit: still one double eigenvalue
        modes = exact_square_spectrum(40, a, b)
        for index in double:
            mode = modes[index - 1]
            assert mode.multiplicity == 2 and mode.evaluator is None
            assert any(m.value == pytest.approx(mode.value, rel=1e-12)
                       and m.mn != mode.mn for m in modes)
        assert modes[0].multiplicity == 1

    def test_diagonal_material_values(self):
        # alpha = diag(1, 2): m^2 + 2 n^2; 9 = 1 + 2*4 and 27 = 25 + 2 = 9 + 18
        modes = domain_modes("square", 12, MaterialSpec(1.0, 0.0, 2.0))
        assert [m.value for m in modes[:6]] == [3, 6, 9, 11, 12, 17]
        assert [(m.mn, m.multiplicity) for m in modes if m.value == 27] == [
            ((3, 3), 2), ((5, 1), 2)]
        assert modes[0].evaluator(np.pi / 2, np.pi / 2) == pytest.approx(1.0)
        assert modes[0].evaluator is not None and modes[-1].evaluator is None

    def test_identity_material_is_default(self):
        for domain in ("square", "lshape"):
            assert domain_modes(domain, 6, MaterialSpec.identity()) == domain_modes(domain, 6)

    @pytest.mark.parametrize("domain,mat", [
        ("square", MaterialSpec(1.0, 0.4, 2.0)), ("lshape", MaterialSpec(1.0, 0.0, 2.0)),
        ("lshape", MaterialSpec.isotropic(2.0)),
    ])
    def test_no_reference_without_closed_form(self, domain, mat):
        modes = domain_modes(domain, 3, mat)
        assert [m.index for m in modes] == [1, 2, 3]
        assert all(m.value is None and m.evaluator is None for m in modes)

    def test_lshape_values(self):
        vals = exact_lshape_values()
        assert vals[1] == pytest.approx(9.63972384464540, abs=1e-14)
        assert vals[3] == pytest.approx(2 * np.pi**2, rel=1e-15)
        assert vals[1] < vals[3]

    def test_sin_norm_constant(self):
        # |sin(x) sin(y)| on the square integrates to pi/2
        got = l2_norm_on_square(lambda x, y: np.sin(x) * np.sin(y), level=2)
        assert got == pytest.approx(np.pi / 2, rel=1e-12)


class TestEigenfunctionError:
    def test_exactly_representable_field_has_zero_error(self, systems):
        # a polynomial "eigenfunction" lives exactly in the reconstruction
        # space, so the error functional must vanish to round-off
        import types

        sys = systems("square", 1, 2)
        fake = types.SimpleNamespace(
            domain="square", index=1, multiplicity=1,
            evaluator=lambda x, y: 1.0 + 0.5 * x - 0.25 * y + 0.1 * x * y,
        )
        coeffs = np.zeros((len(sys.mesh.triangles), sys.ref.n_p))
        for ops, members, pts in sys.class_points(sys.ref.vol.points):
            vals = fake.evaluator(pts[:, :, 0], pts[:, :, 1])
            coeffs[members] = np.einsum(
                "q,eq,qi->ei", ops.wq, vals, ops.p_ops["vals"]
            )
        assert eigenfunction_error(sys, fake, coeffs)[0] < 1e-10
        # sign flip leaves the error unchanged
        assert eigenfunction_error(sys, fake, -coeffs)[0] == pytest.approx(
            eigenfunction_error(sys, fake, coeffs)[0]
        )

    def test_projection_of_exact_mode(self, systems):
        # the functional returns the true projection distance for the
        # exact eigenfunction projected onto the broken space
        sys = systems("square", 1, 2)
        mode = exact_square_spectrum(1)[0]
        coeffs = np.zeros((len(sys.mesh.triangles), sys.ref.n_w))
        for ops, members, pts in sys.class_points(sys.ref.vol.points):
            vals = mode.evaluator(pts[:, :, 0], pts[:, :, 1])
            coeffs[members] = np.einsum("q,eq,qi->ei", ops.wq, vals, ops.w_vals)
        err, = eigenfunction_error(sys, mode, coeffs)
        assert 0 < err < 1e-3

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("domain", ["square", "lshape"])
    def test_matches_mesh_wide_reference(self, systems, eigenpairs, domain, k):
        # square mode 1, sin x sin y; L-shape mode 3, sin(pi x) sin(pi y)
        if domain == "square":
            index, mode = 1, exact_square_spectrum(1)[0]
        else:
            index, mode = 3, types.SimpleNamespace(
                evaluator=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        sys = systems(domain, 1, k)
        _, pairs = eigenpairs(domain, 1, k, m=index)
        fields = recover_fields(sys, pairs[index - 1])
        scalars = (fields.u, postprocess(sys, fields).u_star)
        got = eigenfunction_error(sys, mode, *scalars)
        want = reference_eigenfunction_error(sys, mode, *scalars)
        assert max(want) < 0.3  # the fields approximate this mode
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_unsupported_mode_raises(self, systems):
        sys = systems("square", 1, 1)
        mode2 = exact_square_spectrum(2)[1]
        coeffs = np.ones((len(sys.mesh.triangles), sys.ref.n_w))
        with pytest.raises(UnsupportedModeError):
            eigenfunction_error(sys, mode2, coeffs)

    def test_benchmark_value(self, studies):
        rep = studies(k=1, levels=(0, 1, 2), modes=(1,))
        err = rep.cell(1, 2).err_u
        assert 0.8 * 3.14e-3 < err < 1.2 * 3.14e-3


class TestAnisotropicMaterial:
    def test_rates_against_exact_values(self, studies):
        # alpha = diag(1, 2) on (0, pi)^2: eigenvalues m^2 + 2 n^2, the
        # first four (3, 6, 9, 11) simple; the first check of the
        # postprocessing stiffness with alpha != I.  The study scores
        # against the material's own spectrum.
        mat = MaterialSpec(1.0, 0.0, 2.0)
        rep = studies(k=1, levels=(1, 2, 3), modes=(1, 2, 3, 4), material=mat)
        for exact in domain_modes("square", 4, mat):
            mode = exact.index
            assert exact.multiplicity == 1
            err = rep.errors("lam", mode)
            err_star = rep.errors("lam_star", mode)
            assert err[-1] == abs(rep.cell(mode, 3).lam - exact.value)
            assert abs(estimate_order(err)[-1] - 3.0) <= 0.3  # 2k + 1
            assert estimate_order(err_star)[-1] >= 3.7  # at least 2k + 2, up to 0.3
            assert all(s < e for s, e in zip(err_star, err))
            # simple modes with a closed form: the eigenfunction converges too
            assert estimate_order(rep.errors("u", mode))[-1] >= 1.7

    def test_non_diagonal_material_has_no_reference(self, studies):
        rep = studies(k=1, levels=(0, 1), modes=(1, 2), material=MaterialSpec(1.0, 0.4, 2.0))
        for cell in rep.cells:
            assert cell.lam > 0 and cell.lam_star > 0
            assert cell.err_lam is cell.err_lam_star is cell.err_u is None


class TestEstimateOrder:
    def test_doubling(self):
        assert estimate_order([4e-2, 1e-2]) == [None, pytest.approx(2.0)]

    def test_flat(self):
        assert estimate_order([1e-3, 1e-3]) == [None, pytest.approx(0.0)]

    def test_benchmark_row(self):
        orders = estimate_order([5.97e-3, 8.44e-4])
        assert orders[1] == pytest.approx(2.82, abs=0.005)

    def test_nonpositive_marked_undefined(self):
        assert estimate_order([1e-2, 0.0, 1e-3]) == [None, None, None]

    def test_too_short(self):
        with pytest.raises(ValueError):
            estimate_order([1.0])


class TestStudyConfig:
    def test_rejects_bad_levels(self):
        with pytest.raises(ConfigError):
            StudyConfig(levels=(2, 1))
        with pytest.raises(ConfigError):
            StudyConfig(levels=(0, 2))

    def test_rejects_bad_modes(self):
        with pytest.raises(ConfigError):
            StudyConfig(modes=(0,))
        with pytest.raises(ConfigError):
            StudyConfig(modes=(3, 1))

    def test_rejects_incompatible_tau(self):
        with pytest.raises(ConfigError):
            StudyConfig(k=1, tau=TauSpec.zero())
        StudyConfig(k=1, case="case1", tau=TauSpec.zero())  # BDM is fine


class TestRunStudy:
    def test_k2_benchmark_row(self, studies):
        rep = studies(k=2, levels=(0, 1, 2), modes=(1,), postprocess=False)
        errs = rep.errors("lam", 1)
        assert errs[0] == pytest.approx(1.38e-4, rel=0.05)
        assert errs[1] == pytest.approx(4.53e-6, rel=0.05)
        assert errs[2] == pytest.approx(1.43e-7, rel=0.05)
        orders = rep.orders("lam", 1)
        assert orders[1] == pytest.approx(4.93, abs=0.1)
        assert orders[2] == pytest.approx(4.98, abs=0.1)

    def test_kernel_overrequest_recorded_not_raised(self, meshes):
        # requesting more modes than the lowest-order space resolves
        # poisons the level but the report still comes back
        from hdgeig.study import run_convergence_study

        cfg = StudyConfig(k=0, levels=(0,), modes=(40,), postprocess=False)
        rep = run_convergence_study(cfg)
        assert rep.cell(40, 0).lam is None
        assert "kernel" in rep.cell(40, 0).note

    def test_determinism(self, meshes):
        from hdgeig.study import run_convergence_study

        cfg = StudyConfig(k=1, levels=(0, 1), modes=(1, 2), postprocess=True)
        a = run_convergence_study(cfg)
        b = run_convergence_study(cfg)
        for ca, cb in zip(a.cells, b.cells):
            assert ca.lam == cb.lam and ca.lam_star == cb.lam_star


class TestEmitTable:
    def test_markdown_layout(self, studies):
        rep = studies(k=1, levels=(0, 1, 2), modes=(1,))
        text = emit_table(rep, "markdown")
        assert "mode 1 error | order" in text
        assert text.count("| 1 |") >= 3  # one row per level, k column

    def test_csv_parses(self, studies):
        import csv as _csv
        import io

        rep = studies(k=1, levels=(0, 1, 2), modes=(1,))
        rows = list(_csv.reader(io.StringIO(emit_table(rep, "csv"))))
        assert len(rows) == 1 + len(rep.levels)
        assert "lam_mode1_error" in rows[0]
        idx = rows[0].index("lam_mode1_error")
        assert float(rows[1][idx]) == rep.cell(1, 0).err_lam

    def test_json_round_trip(self, studies):
        rep = studies(k=1, levels=(0, 1, 2), modes=(1,))
        parsed = ConvergenceReport.from_dict(json.loads(emit_table(rep, "json")))
        assert parsed == rep

    def test_empty_report_headers_only(self):
        rep = ConvergenceReport(
            domain="square", k=1, case="equal", tau_label="tau=1",
            levels=[], modes=[], cells=[], timings=[],
        )
        text = emit_table(rep, "markdown")
        assert text.startswith("# Convergence study")
        csv_text = emit_table(rep, "csv")
        assert csv_text.splitlines()[0].startswith("domain,")

    def test_unknown_format(self, studies):
        rep = studies(k=1, levels=(0, 1, 2), modes=(1,))
        with pytest.raises(ConfigError):
            emit_table(rep, "yaml")
