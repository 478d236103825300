import json
import types

import numpy as np
import pytest

from hdgeig import assembly, eigensolve, study
from hdgeig.assembly import RUN_LENGTH, load_moments, resolvent_lift
from hdgeig.basis import triangle_quadrature
from hdgeig.eigensolve import solve_linear_surrogate, solve_modes
from hdgeig.errors import ConfigError, EigenSolveError, UnsupportedModeError
from hdgeig.localsolve import MaterialSpec, SpaceConfig, TauSpec, reference_tables
from hdgeig.mesh import Mesh, build_square_mesh, refine
from hdgeig.study import (
    CellResult,
    ConvergenceReport,
    ExactMode,
    StudyConfig,
    domain_modes,
    eigenfunction_error,
    emit_table,
    estimate_order,
    exact_lshape_values,
    exact_square_spectrum,
    inject_fields,
    run_convergence_study,
)
from hdgeig.recovery import postprocess, recover_fields
from test_eigensolve import reference_surrogate_values


def square_quadrature(level, order=12):
    """x, y and weights of a triangle rule mapped to every element of the
    level-``level`` square mesh, each (T, n_q)."""
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
    return pts[:, :, 0], pts[:, :, 1], wq


def l2_norm_on_square(func, level=4, order=12):
    """Quadrature L2 norm of a function on the square domain."""
    x, y, wq = square_quadrature(level, order)
    return float(np.sqrt(np.sum(wq * func(x, y) ** 2)))


def pointwise_mode(evaluator, norm, **attrs):
    """A mode with ``ExactMode``'s run interface over a pointwise ``evaluator``."""
    run_values = lambda p0, d: evaluator(p0[:, :1] + d[:, 0], p0[:, 1:] + d[:, 1])
    return types.SimpleNamespace(evaluator=evaluator, norm=norm, run_values=run_values, **attrs)


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
        ("lshape", MaterialSpec(2.0, 0.0, 2.0)),
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
        # so does every simple mode's sin(m x) sin(n y), whatever the
        # diagonal alpha: ``ExactMode.norm``, which eigenfunction_error
        # divides by.  On level 0 the 12th-order rule itself falls short on
        # the fastest modes (1.4e-6 at sin 4x sin 4y); from level 1 on the
        # two agree to 3.4e-13 or better
        modes = exact_square_spectrum(30) + domain_modes("square", 12, MaterialSpec(1, 0, 2))
        simple = [mode for mode in modes if mode.evaluator is not None]
        for level in range(6):
            x, y, wq = square_quadrature(level)
            for mode in simple:
                got = np.sqrt(np.sum(wq * mode.evaluator(x, y) ** 2))
                assert mode.norm == pytest.approx(got, rel=2e-6 if level == 0 else 1e-12)

    def test_run_values_match_the_evaluator(self, systems):
        # at every error point of levels 0-3, on every class (lower and upper
        # triangles of the grid cells, in each vertex order refinement gives
        # them), for every (m, n) up to (6, 6) and the simple modes of
        # isotropic and anisotropic diagonal alpha.  The pointwise form
        # rounds x = x0 + d and m x before its sine, an absolute error of up
        # to about eps (1 + pi max(m, n)); the two forms differ by at most
        # 1.07 times that (4.7e-15 at (6, 6))
        grid = [ExactMode("square", 1, None, mn=(m, n)) for m in range(1, 7) for n in range(1, 7)]
        spectra = [domain_modes("square", 12, MaterialSpec(a, 0, b))
                   for a, b in ((1, 1), (1, 2), (3, 0.5))]
        modes = grid + [mode for spectrum in spectra for mode in spectrum
                        if mode.evaluator is not None]
        for level in range(4):
            sys = systems("square", level, 0)
            assert len(sys.classes) >= 2
            p0, points = sys.mesh.vertices[sys.mesh.triangles[:, 0]], sys.ref.err.points
            runs = list(zip(sys.class_runs, sys.class_points(points)))
            for mode in modes:
                atol = 2 * np.finfo(float).eps * (1 + np.pi * max(mode.mn))
                for (ops, members), (_, _, x, y) in runs:
                    np.testing.assert_allclose(mode.run_values(p0[members], points @ ops.bmat.T),
                                               mode.evaluator(x, y), rtol=0, atol=atol)


class TestEigenfunctionError:
    def test_exactly_representable_field_has_zero_error(self, systems):
        # a polynomial "eigenfunction" lives exactly in the reconstruction
        # space, so the error functional must vanish to round-off
        sys = systems("square", 1, 2)
        poly = lambda x, y: 1.0 + 0.5 * x - 0.25 * y + 0.1 * x * y
        fake = pointwise_mode(poly, l2_norm_on_square(poly, level=1),
                              domain="square", index=1, multiplicity=1)
        coeffs = np.zeros((len(sys.mesh.triangles), sys.ref.n_p))
        for ops, members, x, y in sys.class_points(sys.ref.vol.points):
            vals = fake.evaluator(x, y)
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
        for ops, members, x, y in sys.class_points(sys.ref.vol.points):
            vals = mode.evaluator(x, y)
            coeffs[members] = np.einsum("q,eq,qi->ei", ops.wq, vals, ops.w_vals)
        err, = eigenfunction_error(sys, mode, coeffs)
        assert 0 < err < 1e-3

    @staticmethod
    def check_against_reference(systems, eigenpairs, domain, level, k, atol=0.0):
        # square mode 1, sin x sin y; L-shape mode 3, sin(pi x) sin(pi y)
        if domain == "square":
            index, mode = 1, exact_square_spectrum(1)[0]
        else:
            # on three unit squares: norm sqrt(3 / 4)
            index, mode = 3, pointwise_mode(
                lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), np.sqrt(3) / 2)
        sys = systems(domain, level, k)
        _, pairs = eigenpairs(domain, level, k, m=index)
        fields = recover_fields(sys, pairs[index - 1])
        scalars = (fields.u, postprocess(sys, fields).u_star)
        got = eigenfunction_error(sys, mode, *scalars)
        want = reference_eigenfunction_error(sys, mode, *scalars)
        assert max(want) < 0.3  # the fields approximate this mode
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("domain", ["square", "lshape"])
    def test_matches_mesh_wide_reference(self, systems, eigenpairs, domain, k):
        self.check_against_reference(systems, eigenpairs, domain, 1, k)

    def test_reference_check_after_a_larger_run(self, systems, eigenpairs):
        # the first pairs of a six-mode run differ from a one-mode run in
        # the last digits; asking for them first leaves the check's pairs
        # as they are
        eigenpairs("square", 1, 3, m=6)
        self.check_against_reference(systems, eigenpairs, "square", 1, 3)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_mesh_wide_reference_level3(self, systems, eigenpairs, k):
        # errors down to 2.1e-7 (u* at k = 2).  A distance between unit
        # fields carries an absolute round-off of order eps from the
        # pointwise values it subtracts, however they are formed: there the
        # mesh-wide reference and the functional differ by 2e-17, 1e-10
        # relative, so an absolute tolerance of a few eps stands beside rtol
        self.check_against_reference(systems, eigenpairs, "square", 3, k, atol=1e-15)

    @pytest.mark.parametrize("run_length", [RUN_LENGTH, 1000])
    def test_evaluator_sees_one_run_at_a_time(self, monkeypatch, systems, run_length):
        # level-4 square: 8,192 elements in two classes.  One pass
        # evaluates the exact mode once per run; no call sees more rows
        # than one run, and the distances match the mesh-wide ones
        monkeypatch.setattr(assembly, "RUN_LENGTH", run_length)
        sys = systems("square", 4, 1)
        mode = exact_square_spectrum(1)[0]
        rows = []

        def evaluator(x, y):
            rows.append(len(x))
            return mode.evaluator(x, y)

        coeffs = load_moments(sys, mode.evaluator)  # the mode's L2 projection
        fields = (coeffs, np.random.default_rng(2).standard_normal(coeffs.shape))
        got = eigenfunction_error(sys, pointwise_mode(evaluator, mode.norm), *fields)
        assert max(rows) <= run_length and sum(rows) == len(sys.mesh.triangles)
        assert len(rows) == sum(-(-len(m) // run_length) for _, m in sys.class_groups)
        np.testing.assert_allclose(got, reference_eigenfunction_error(sys, mode, *fields),
                                   rtol=1e-12)

    def test_zero_field_raises(self, systems):
        sys = systems("square", 1, 1)
        with pytest.raises(ValueError, match="identically zero"):
            eigenfunction_error(sys, exact_square_spectrum(1)[0],
                                np.zeros((len(sys.mesh.triangles), sys.ref.n_w)))

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


class TestRoundoffFloor:
    def test_eigenvalue_orders_stop_at_roundoff(self):
        # lam = 2: eigenvalue errors below 2e-11 give no order, while the
        # cells, and with them the JSON, keep every error
        errs = [4e-10, 2.5e-11, 1.6e-12]
        cells = [CellResult(mode=1, level=l, lam=2.0, err_lam=e, err_lam_star=e, gap=e,
                            err_u=e) for l, e in enumerate(errs)]
        rep = ConvergenceReport("square", 2, "equal", "tau=1", [0, 1, 2], [1], cells,
                                [0.0] * 3)
        for metric in ("lam", "lam_star", "gap"):
            assert rep.orders(metric, 1) == [None, pytest.approx(4.0), None]
        assert rep.orders("u", 1) == estimate_order(errs)
        assert "| 1.60e-12 | -- |" in emit_table(rep, "markdown")
        assert [c["err_lam"] for c in json.loads(emit_table(rep, "json"))["cells"]] == errs


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

    def test_rejects_postprocessing_past_k3(self):
        with pytest.raises(ConfigError, match="k <= 3"):
            StudyConfig(k=4)
        StudyConfig(k=4, postprocess=False)


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

    def test_recovery_runs_without_the_factorization(self, monkeypatch):
        # the LU serves only the level's eigensolves: recovery, postprocessing
        # and error integration run after it is released
        def recover(sys, pair):
            assert sys._splu is None
            return recover_fields(sys, pair)

        monkeypatch.setattr("hdgeig.study.recover_fields", recover)
        rep = run_convergence_study(StudyConfig(k=1, levels=(0, 1), modes=(1,)))
        assert all(not c.note and c.err_u_star is not None for c in rep.cells)

    def test_never_builds_the_spectral_lift(self, monkeypatch):
        # the spectral lift serves only the nonlinear eigensolve, which
        # builds it on first use; the oracle check is the control
        from hdgeig.cli import main

        build = assembly.CondensedSystem.spectral_lift.func
        built = []
        monkeypatch.setattr(assembly.CondensedSystem, "spectral_lift",
                            property(lambda sys: built.append(sys) or build(sys)))
        rep = run_convergence_study(StudyConfig(k=1, levels=(0, 1), modes=(1, 2)))
        assert all(not c.note for c in rep.cells) and built == []
        assert main(["oracle-check", "--level", "0", "--modes", "2"]) == 0
        assert len(built) > 0 and len(set(map(id, built))) == 1

    def test_determinism(self, meshes):
        from hdgeig.study import run_convergence_study

        cfg = StudyConfig(k=1, levels=(0, 1), modes=(1, 2), postprocess=True)
        a = run_convergence_study(cfg)
        b = run_convergence_study(cfg)
        for ca, cb in zip(a.cells, b.cells):
            assert ca.lam == cb.lam and ca.lam_star == cb.lam_star


def element_values(corners, basis, coeffs, points):
    """Values (N, n_q) of element coefficients (N, n_w) at reference points
    (N, n_q, 2), for elements with the given corners (N, 3, 2): the element
    basis is the reference one over sqrt(det B)."""
    jac = np.stack([corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]], axis=2)
    tabs = basis.tabulate(points.reshape(-1, 2))[0].reshape(*points.shape[:2], -1)
    return np.einsum("tqi,ti->tq", tabs, coeffs) / np.sqrt(np.linalg.det(jac))[:, None]


class TestWarmStarts:
    """The study starts each level's modes run from the previous level's
    eigenfields and the surrogate run from the level's own: same numbers
    as cold runs, or a typed error."""

    @pytest.mark.parametrize("domain", ["square", "lshape"])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_injection_is_exact(self, meshes, domain, k):
        # random P_k fields on the parents, evaluated at each child's
        # quadrature points through the parent's own affine map
        coarse = meshes(domain, 1)
        fine = refine(coarse)
        ref = reference_tables(SpaceConfig(k))
        fields = np.random.default_rng(k).standard_normal((len(coarse.triangles) * ref.n_w, 3))
        injected = inject_fields(ref, fields)

        children = fine.vertices[fine.triangles]
        parent_of = np.arange(len(children)) // 4
        parents = coarse.vertices[coarse.triangles][parent_of]
        pts = np.broadcast_to(ref.vol.points, (len(children), len(ref.vol), 2))
        phys = children[:, None, 0] + np.einsum(
            "tdj,tqj->tqd", np.stack([children[:, 1] - children[:, 0],
                                      children[:, 2] - children[:, 0]], axis=2), pts)
        parent_jac = np.stack([parents[:, 1] - parents[:, 0], parents[:, 2] - parents[:, 0]],
                              axis=2)
        parent_pts = np.einsum("tjd,tqd->tqj", np.linalg.inv(parent_jac),
                               phys - parents[:, None, 0])
        for coarse_col, fine_col in zip(fields.T, injected.T):
            want = element_values(parents, ref.wbasis,
                                  coarse_col.reshape(-1, ref.n_w)[parent_of], parent_pts)
            got = element_values(children, ref.wbasis, fine_col.reshape(-1, ref.n_w), pts)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_child_maps_are_built_once(self, monkeypatch, k):
        # the injection maps come from the reference triangle refined once at
        # import and are cached per ReferenceTables: an injection refines no
        # mesh, and the maps are those of a fresh refinement, bit for bit
        ref = reference_tables(SpaceConfig(k))
        block = np.random.default_rng(k).standard_normal((2 * ref.n_w, 3))
        monkeypatch.setattr(study, "refine", lambda mesh: pytest.fail("refine called"))
        first, second = inject_fields(ref, block), inject_fields(ref, block)
        np.testing.assert_array_equal(first, second)
        monkeypatch.undo()
        children = refine(Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]]))
        pts, weights = ref.vol.points, ref.vol.weights
        child = ref.wbasis.tabulate(pts)[0] * weights[:, None]
        want = [0.5 * child.T @ ref.wbasis.tabulate(
                    c0 + pts @ np.column_stack([c1 - c0, c2 - c0]).T)[0]
                for c0, c1, c2 in children.vertices[children.triangles]]
        assert study._child_maps(ref) is study._child_maps(ref)
        np.testing.assert_array_equal(study._child_maps(ref), np.stack(want))

    @pytest.mark.parametrize("domain", ["square", "lshape"])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_study_matches_cold_solves(self, studies, systems, eigenpairs, domain, k):
        self.check_cold_numbers(studies, systems, eigenpairs, domain, k, (0, 1, 2, 3))

    @pytest.mark.parametrize("first", [1, 2, 3])
    @pytest.mark.parametrize("domain", ["square", "lshape"])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_warm_first_level_matches_cold_solves(self, studies, systems, eigenpairs, domain,
                                                  k, first):
        # a first level above 0 starts from a coarser mesh's eigenfields
        self.check_cold_numbers(studies, systems, eigenpairs, domain, k, (first,))

    @staticmethod
    def check_cold_numbers(studies, systems, eigenpairs, domain, k, levels):
        # modes 1-6 hold the square's double eigenvalues 5 and 10; the
        # study's values against cold Lanczos runs on each level, on T0 for
        # the surrogate's.  err_u is
        # a distance between unit fields, moved by at most the eigenvector
        # difference, so it is compared absolutely
        modes = (1, 2, 3, 4, 5, 6)
        rep = studies(domain=domain, k=k, levels=levels, modes=modes)
        exact = domain_modes(domain, len(modes))
        for level in rep.levels:
            sys = systems(domain, level, k, "one")
            _, pairs = eigenpairs(domain, level, k, "one", m=len(modes))
            for pair, lam_tilde in zip(pairs, reference_surrogate_values(sys, len(modes))):
                cell = rep.cell(pair.index, level)
                fields = recover_fields(sys, pair)
                assert cell.note == ""
                assert cell.lam == pytest.approx(pair.value, rel=1e-12)
                assert cell.lam_tilde == pytest.approx(lam_tilde, rel=1e-12)
                assert cell.lam_star == pytest.approx(postprocess(sys, fields).value_star,
                                                      rel=1e-12)
                if exact[pair.index - 1].evaluator is not None:
                    err_u = eigenfunction_error(sys, exact[pair.index - 1], fields.u)[0]
                    assert abs(cell.err_u - err_u) <= 1e-12

    def test_first_level_starts_from_a_coarser_mesh(self, studies, systems):
        # level 4 at k = 0 from level 2's eigenfield, against a cold run
        rep = studies(k=0, levels=(4,), modes=(1,))
        cold = solve_modes(systems("square", 4, 0), 1)[0]
        assert rep.cell(1, 4).iterations < cold.iterations
        assert rep.cell(1, 4).lam == pytest.approx(cold.value, rel=1e-12)

    @pytest.mark.parametrize("domain", ["square", "lshape"])
    def test_first_level_refines_the_coarse_start_mesh(self, monkeypatch, domain):
        # the mesh of level 4 is level 2's refined twice, and level 2's
        # coarse run works on that mesh: one mesh is built, not two
        from hdgeig import study

        built, assembled, build = [], [], study.build_domain_mesh
        monkeypatch.setattr(study, "build_domain_mesh",
                            lambda *args: built.append(args) or build(*args))
        assemble = study.assemble_condensed
        monkeypatch.setattr(study, "assemble_condensed",
                            lambda mesh, *args: assembled.append(mesh) or assemble(mesh, *args))
        run_convergence_study(StudyConfig(domain=domain, k=0, levels=(4,), modes=(1,),
                                          postprocess=False))
        assert built == [(domain, 2)]
        assert [mesh.level for mesh in assembled] == [4, 2]
        fine = build(domain, 4)
        np.testing.assert_array_equal(assembled[0].vertices, fine.vertices)
        np.testing.assert_array_equal(assembled[0].triangles, fine.triangles)
        assert assembled[0].domain == domain

    def test_a_coarse_level_too_small_starts_cold(self, systems):
        # level 0 at k = 0 holds at most 32 modes, one per element; level 2
        # then starts cold and still gives its numbers
        with pytest.raises(EigenSolveError, match="represents at most"):
            solve_modes(systems("square", 0, 0), 35)
        details = []
        rep = run_convergence_study(StudyConfig(k=0, levels=(2,), modes=(35,), postprocess=False),
                                    progress=lambda level, seconds, detail: details.append(detail))
        assert "block solves (cold)" in details[0]
        cold = solve_modes(systems("square", 2, 0), 35)[-1]
        cell = rep.cell(35, 2)
        assert cell.note == "" and cell.iterations == cold.iterations
        assert cell.lam == pytest.approx(cold.value, rel=1e-12)

    def test_refinement_cap_is_typed(self, systems, monkeypatch):
        coarse, sys = systems("square", 1, 1), systems("square", 2, 1)
        eigenfields = np.column_stack([resolvent_lift(coarse, p.value, p.vector).ravel()
                                       for p in solve_modes(coarse, 4)])
        start = inject_fields(sys.ref, eigenfields)
        pairs = solve_modes(sys, 4)
        monkeypatch.setattr(eigensolve, "_LOBPCG_MAX_ITER", 1)
        with pytest.raises(EigenSolveError, match="LOBPCG .* did not converge"):
            solve_modes(sys, 4, lambda: start)
        with pytest.raises(EigenSolveError, match="LOBPCG .* did not converge"):
            solve_linear_surrogate(sys, pairs)
        # in a study every level's surrogate run stalls: notes, no numbers
        rep = run_convergence_study(StudyConfig(k=1, levels=(0, 1), modes=(1, 2)))
        for cell in rep.cells:
            assert cell.lam is None and "did not converge" in cell.note

    @pytest.mark.parametrize("k", [1, 2])
    def test_spurious_clusters_never_change_a_number(self, studies, eigenpairs, k):
        self.check_spurious_clusters(studies, eigenpairs, k, (0, 1, 2))

    def test_spurious_clusters_from_a_coarser_mesh(self, studies, eigenpairs):
        # at k = 1 and 2, level 2's block start from level 0's eigenfields
        # stalls, so level 2 runs once cold and gives numbers; level 3
        # starts from them and stalls
        for k in (1, 2):
            rep = self.check_spurious_clusters(studies, eigenpairs, k, (2, 3))
            assert all(not rep.cell(m, 2).note and rep.cell(m, 3).note for m in rep.modes), k

    @staticmethod
    def check_spurious_clusters(studies, eigenpairs, k, levels):
        # the L-shape with tau = h has clusters of spurious values under the
        # wall, which Lanczos returns; a warm LOBPCG run there, from the
        # previous level or on a first level from a coarser mesh, either
        # converges to the same values or stalls with a typed error, and
        # the level after a stalled one starts cold.  A level whose cells
        # all carry the note is not solved cold here: at k = 2, level 3,
        # that is a Lanczos run of about 15,000 applications (20 s)
        modes = (1, 2, 3, 4, 5, 6)
        rep = studies(domain="lshape", k=k, tau=TauSpec.global_h(), levels=levels,
                      modes=modes, postprocess=False)
        assert any(cell.note for cell in rep.cells)
        for cell in rep.cells:
            if cell.note:
                assert "LOBPCG" in cell.note and cell.lam is None
        for level in sorted({cell.level for cell in rep.cells if not cell.note}):
            surrogates, pairs = eigenpairs("lshape", level, k, "h", m=len(modes))
            for pair, surrogate in zip(pairs, surrogates):
                cell = rep.cell(pair.index, level)
                if not cell.note:
                    assert cell.lam == pytest.approx(pair.value, rel=1e-10)
                    assert cell.lam_tilde == pytest.approx(surrogate.value, rel=1e-10)
        return rep

    def test_a_stalled_coarse_start_retries_cold(self, eigenpairs):
        # on the square with tau = 0.1 at k = 2, level 1's block start from
        # level 0's eigenfields stalls; the level then runs once cold and
        # gives the cold numbers, and level 2 starts from its eigenfields
        modes = (1, 2, 3, 4, 5, 6)
        details = []
        rep = run_convergence_study(
            StudyConfig(k=2, tau=TauSpec.constant(0.1), levels=(1, 2), modes=modes,
                        postprocess=False),
            progress=lambda level, seconds, detail: details.append(detail))
        assert "(cold after a stalled block start from level 0," in details[0]
        assert "(block start)" in details[1]
        for level in rep.levels:
            surrogates, pairs = eigenpairs("square", level, 2, 0.1, m=len(modes))
            for pair, surrogate in zip(pairs, surrogates):
                cell = rep.cell(pair.index, level)
                assert cell.note == ""
                assert cell.lam == pytest.approx(pair.value, rel=1e-10)
                assert cell.lam_tilde == pytest.approx(surrogate.value, rel=1e-10)


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
