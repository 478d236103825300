"""Acceptance suite: one test per criterion, one printed line each.

Heavy studies are shared through the session-scoped ``studies`` fixture,
so each (domain, degree, stabilization, case) combination is solved once
and reused by every criterion that reads it.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import element_ops, newton_pairs
from hdgeig.assembly import assemble_condensed, assemble_m_of_lambda
from hdgeig.eigensolve import solve_modes
from hdgeig.localsolve import MaterialSpec, SpaceConfig, TauSpec
from hdgeig.recovery import (
    eig_residuals,
    postprocess,
    qstar_normal_jumps,
    recover_fields,
    source_residuals,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print("[acceptance] criterion %2d (%s): FAIL" % (number, description))
        raise
    print("[acceptance] criterion %2d (%s): PASS" % (number, description))


def within(value, target, rel):
    assert value == pytest.approx(target, rel=rel), (
        "value %.4e not within %.0f%% of %.4e" % (value, 100 * rel, target)
    )


def order_in(order, lo, hi):
    assert order is not None and lo <= order <= hi, (
        "order %r outside [%g, %g]" % (order, lo, hi)
    )


# session-wide study handles (built lazily by the fixture)
TAU1 = dict(tau=TauSpec.one())
FULL_LEVELS = (0, 1, 2, 3, 4)
PAIR_LEVELS = (2, 3)


def test_criterion_01_oracle_equivalence(meshes):
    with criterion(1, "oracle equivalence on coarse meshes"):
        start = time.perf_counter()
        for domain in ("square", "lshape"):
            for level in (0, 1):
                for k in (0, 1):
                    for tau in (TauSpec.one(), TauSpec.global_h()):
                        sys = assemble_condensed(
                            meshes(domain, level), SpaceConfig(k), tau
                        )
                        # oracle-check's two columns: the nonlinear route
                        # against the modes run on the solution operator
                        lams = np.sort([p.value for p in newton_pairs(sys, 6)])
                        oracle = np.array([p.value for p in solve_modes(sys, 6)])
                        rel = np.abs(lams - oracle) / oracle
                        assert rel.max() < 1e-9, (domain, level, k, tau.label())
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, "oracle grid took %.1fs" % elapsed


def test_criterion_02_eigenvalue_rates_tau_one(studies):
    with criterion(2, "eigenvalue rates, unit stabilization"):
        rep1 = studies(k=1, levels=FULL_LEVELS, modes=(1, 2, 4, 6), **TAU1)
        errs = rep1.errors("lam", 1)
        for level, target in ((1, 8.44e-4), (2, 1.10e-4), (3, 1.39e-5)):
            within(errs[level], target, 0.20)
        order_in(rep1.orders("lam", 1)[3], 2.85, 3.15)

        rep2 = studies(k=2, levels=FULL_LEVELS, modes=(1, 2, 4, 6), **TAU1)
        within(rep2.errors("lam", 1)[2], 1.43e-7, 0.20)
        order_in(rep2.orders("lam", 1)[2], 4.8, 5.2)

        rep0 = studies(k=0, levels=FULL_LEVELS, modes=(1, 2, 4, 6),
                       postprocess=False, **TAU1)
        order_in(rep0.orders("lam", 1)[4], 0.85, 1.05)

        # runtime contract: levels through 3 within 2 minutes, level 4
        # within the 15-minute sparse-path target
        coarse = sum(sum(rep.timings[:4]) for rep in (rep0, rep1, rep2))
        finest = sum(rep.timings[4] for rep in (rep0, rep1, rep2))
        assert coarse < 120.0, "levels 0-3 took %.1fs" % coarse
        assert finest < 900.0, "level 4 took %.1fs" % finest


def test_criterion_03_postprocessed_eigenvalue_rates(studies):
    with criterion(3, "postprocessed eigenvalue rates"):
        rep1 = studies(k=1, levels=FULL_LEVELS, modes=(1, 2, 4, 6), **TAU1)
        within(rep1.errors("lam_star", 1)[3], 5.42e-7, 0.25)
        order_in(rep1.orders("lam_star", 1)[3], 3.8, 4.3)

        rep2 = studies(k=2, levels=FULL_LEVELS, modes=(1, 2, 4, 6), **TAU1)
        within(rep2.errors("lam_star", 1)[2], 1.11e-8, 0.30)
        order_in(rep2.orders("lam_star", 1)[2], 5.9, 6.7)


def test_criterion_04_eigenfunction_rates(studies):
    with criterion(4, "eigenfunction rates"):
        rep = studies(k=1, levels=FULL_LEVELS, modes=(1, 2, 4, 6), **TAU1)
        within(rep.errors("u", 1)[3], 7.85e-4, 0.20)
        order_in(rep.orders("u", 1)[3], 1.9, 2.1)
        within(rep.errors("u_star", 1)[3], 1.82e-5, 0.20)
        order_in(rep.orders("u_star", 1)[3], 2.85, 3.15)
        # benchmark pin at the finest level of the same table
        within(rep.errors("u_star", 1)[4], 2.28e-6, 0.20)
        assert rep.orders("u_star", 1)[4] == pytest.approx(2.99, abs=0.15)


def test_criterion_05_surrogate_gap(studies, systems):
    with criterion(5, "surrogate seeding quality"):
        rep0 = studies(k=0, levels=FULL_LEVELS, modes=(1, 2, 4, 6),
                       postprocess=False, **TAU1)
        within(rep0.errors("gap", 1)[3], 5.99e-2, 0.25)
        order_in(rep0.orders("gap", 1)[3], 0.9, 1.15)

        rep1 = studies(k=1, levels=FULL_LEVELS, modes=(1, 2, 4, 6), **TAU1)
        within(rep1.errors("gap", 1)[3], 8.23e-4, 0.25)
        order_in(rep1.orders("gap", 1)[3], 1.9, 2.15)

        # trend over the finer half of the table: first order for the
        # lowest degree, second order above
        assert all(o >= 0.8 for o in rep0.orders("gap", 1)[3:])
        assert all(o >= 1.7 for o in rep1.orders("gap", 1)[3:])

        rep2 = studies(k=2, levels=FULL_LEVELS, modes=(1, 2, 4, 6), **TAU1)
        assert all(o >= 1.7 for o in rep2.orders("gap", 1)[3:])
        for rep in (rep0, rep1, rep2):
            assert all(cell.iterations is not None for cell in rep.cells)

        # the studies run the Lanczos route; the seeds must still carry the
        # paper's route (predictor plus safeguarded Newton on the
        # frozen-pencil fixed point), as oracle-check runs it, to
        # convergence within 10 iterations on every cell
        for k in (0, 1, 2):
            for level in FULL_LEVELS:
                pairs = newton_pairs(systems("square", level, k), 6)
                for mode in (1, 2, 4, 6):
                    its = pairs[mode - 1].iterations
                    assert its <= 10, (
                        "k %d mode %d level %d took %d iterations" % (k, mode, level, its)
                    )


def test_criterion_06_reduced_rates_mesh_size_tau(studies):
    with criterion(6, "reduced rates for mesh-size stabilizations"):
        rep = studies(k=1, tau=TauSpec.global_h(), levels=PAIR_LEVELS,
                      modes=(1,), postprocess=False)
        within(rep.errors("lam", 1)[1], 3.62e-4, 0.25)
        order_in(rep.orders("lam", 1)[1], 1.8, 2.1)

        # the criterion lists 9.85e-3 here, but that figure belongs to the
        # L-shape table; the cited reciprocal-mesh-size table says 4.06e-4
        rep = studies(k=1, tau=TauSpec.inverse_global_h(), levels=PAIR_LEVELS,
                      modes=(1,), postprocess=False)
        within(rep.errors("lam", 1)[1], 4.06e-4, 0.25)
        order_in(rep.orders("lam", 1)[1], 1.8, 2.1)

        for tau in (TauSpec.global_h(), TauSpec.inverse_global_h()):
            rep = studies(k=2, tau=tau, levels=PAIR_LEVELS, modes=(1,),
                          postprocess=False)
            order_in(rep.orders("lam", 1)[1], 3.8, 4.1)


def test_criterion_07_lshape(studies):
    with criterion(7, "L-shaped domain: singular and smooth modes"):
        rep = studies(domain="lshape", k=2, levels=PAIR_LEVELS, modes=(1, 2, 3),
                      **TAU1)
        within(rep.errors("lam", 1)[1], 3.73e-3, 0.25)
        order_in(rep.orders("lam", 1)[1], 1.2, 1.45)
        within(rep.errors("lam", 3)[1], 6.50e-6, 0.30)
        order_in(rep.orders("lam", 3)[1], 4.8, 5.3)
        order_in(rep.orders("lam_star", 3)[1], 5.8, 6.6)


def test_criterion_08_mixed_degree_cases(studies):
    with criterion(8, "mixed-degree space cases"):
        rep1 = studies(k=2, case="case1", levels=PAIR_LEVELS, modes=(1,), **TAU1)
        within(rep1.errors("lam", 1)[1], 7.90e-5, 0.25)
        order_in(rep1.orders("lam", 1)[1], 2.8, 3.2)
        order_in(rep1.orders("lam_star", 1)[1], 3.8, 4.1)

        rep2 = studies(k=2, case="case2", levels=PAIR_LEVELS, modes=(1,), **TAU1)
        order_in(rep2.orders("lam", 1)[1], 2.8, 3.2)


def test_criterion_09_bdm(studies):
    with criterion(9, "zero-stabilization mixed-degree variant"):
        rep = studies(k=1, case="case1", tau=TauSpec.zero(), levels=PAIR_LEVELS,
                      modes=(1,))
        within(rep.errors("lam_star", 1)[1], 9.31e-8, 0.30)
        order_in(rep.orders("lam_star", 1)[1], 3.9, 4.4)


def test_criterion_10_property_suite(meshes, systems, eigenpairs):
    with criterion(10, "always-on property suite"):
        start = time.perf_counter()

        # matrix symmetry and definiteness
        sys = systems("square", 1, 1)
        assert np.abs(sys.A - sys.A.T).max() <= 1e-12 * np.abs(sys.A).max()
        np.linalg.cholesky(sys.A.toarray())
        gd = (sys.moments @ sys.lift).toarray()  # G = U^T U
        assert np.linalg.eigvalsh(gd).min() > -1e-12 * np.abs(gd).max()

        # resolvent form reduces to the Gram form at zero
        m0 = assemble_m_of_lambda(sys, 0.0)
        assert np.abs(m0 - gd).max() <= 1e-13 * np.abs(gd).max()

        # recovered eigen-triple residuals
        _, pairs = eigenpairs("square", 1, 1, m=1)
        fields = recover_fields(sys, pairs[0])
        assert max(eig_residuals(sys, fields).values()) < 1e-9

        # condensation residuals for a source problem
        from hdgeig.assembly import solve_source

        f = lambda x, y: np.sin(2 * x) * np.cos(y) + x
        eta, u, q = solve_source(sys, f)
        assert max(source_residuals(sys, eta, u, q, f).values()) < 1e-10

        # scalar load lift is self-adjoint in the element mass inner product
        # (the local bases are orthonormal, so the mass matrix is I)
        uw = element_ops(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            SpaceConfig(2), TauSpec.one(),
        ).uwmat
        assert np.abs(uw - uw.T).max() < 1e-12 * np.abs(uw).max()

        # flux reconstruction conformity and scalar mean preservation
        post = postprocess(sys, fields)
        assert qstar_normal_jumps(sys, post.q_star) < 1e-9
        for ops, members in sys.class_groups:
            mean_star = post.u_star[members] @ ops.p_ops["means"]
            mean_u = fields.u[members] @ ops.w_means
            assert np.abs(mean_star - mean_u).max() < 1e-12 * np.sqrt(0.5 * ops.det)

        # coefficient scaling multiplies every eigenvalue by the factor
        s = 3.0
        base = systems("square", 0, 1)
        scaled = assemble_condensed(
            meshes("square", 0), SpaceConfig(1),
            TauSpec.constant(s), MaterialSpec(s, 0.0, s),
        )
        def three_values(sys):
            return np.sort([p.value for p in newton_pairs(sys, 3)])

        v1, v2 = three_values(base), three_values(scaled)
        assert np.abs(v2 - s * v1).max() <= 1e-10 * v2.max()

        # quadrature exactness at the closed-form monomial values
        from hdgeig.basis import _monomial_integral_exact, triangle_quadrature

        rule = triangle_quadrature(8)
        x, y = rule.points.T
        for a in range(9):
            for b in range(9 - a):
                got = np.sum(rule.weights * x**a * y**b)
                assert got == pytest.approx(float(_monomial_integral_exact(a, b)), rel=1e-13)

        # trace-dof permutation invariance of the spectrum
        from hdgeig.mesh import Mesh

        mesh = meshes("square", 0)
        rng = np.random.default_rng(23)
        vperm = rng.permutation(mesh.num_vertices)
        tris = vperm[mesh.triangles]
        tris = tris[rng.permutation(len(tris))]
        permuted = Mesh(mesh.vertices[np.argsort(vperm)], tris, domain="square")
        sys_p = assemble_condensed(permuted, SpaceConfig(1), TauSpec.one())
        v3 = three_values(sys_p)
        assert np.abs(v3 - v1).max() <= 1e-10 * v1.max()

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, "property suite took %.1fs" % elapsed
