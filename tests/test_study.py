import json

import numpy as np
import pytest

from hdgeig.basis import triangle_quadrature
from hdgeig.errors import ConfigError, UnsupportedModeError
from hdgeig.localsolve import MaterialSpec, TauSpec
from hdgeig.mesh import build_square_mesh
from hdgeig.study import (
    ConvergenceReport,
    StudyConfig,
    eigenfunction_error,
    emit_table,
    estimate_order,
    exact_lshape_values,
    exact_square_spectrum,
)


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
        pts = sys.volume_points()
        for ops, members in sys.class_groups:
            vals = fake.evaluator(pts[members][:, :, 0], pts[members][:, :, 1])
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
        pts = sys.volume_points()
        for ops, members in sys.class_groups:
            vals = mode.evaluator(pts[members][:, :, 0], pts[members][:, :, 1])
            coeffs[members] = np.einsum("q,eq,qi->ei", ops.wq, vals, ops.w_vals)
        err, = eigenfunction_error(sys, mode, coeffs)
        assert 0 < err < 1e-3

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
        # postprocessing stiffness with alpha != I
        exact = sorted(m * m + 2 * n * n for m in range(1, 5) for n in range(1, 5))[:4]
        rep = studies(k=1, levels=(1, 2, 3), modes=(1, 2, 3, 4),
                      material=MaterialSpec(1.0, 0.0, 2.0))
        for mode, value in enumerate(exact, 1):
            err = [abs(rep.cell(mode, l).lam - value) for l in rep.levels]
            err_star = [abs(rep.cell(mode, l).lam_star - value) for l in rep.levels]
            assert abs(estimate_order(err)[-1] - 3.0) <= 0.3  # 2k + 1
            assert estimate_order(err_star)[-1] >= 3.7  # at least 2k + 2, up to 0.3
            assert all(s < e for s, e in zip(err_star, err))


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
