"""Shared solver caches, so expensive meshes/systems are built once, the
single-element operators of the local tests, oracle-check's nonlinear
route, and the hypothesis settings profile of the property tests."""

import numpy as np
import pytest
from hypothesis import settings

from hdgeig.assembly import assemble_condensed
from hdgeig.eigensolve import (
    EigenPair,
    search_space,
    solve_condensed_nonlinear,
    solve_linear_surrogate,
    solve_modes,
)
from hdgeig.localsolve import ElementOps, MaterialSpec, SpaceConfig, TauSpec, reference_tables
from hdgeig.mesh import build_lshape_mesh, build_square_mesh
from hdgeig.study import StudyConfig, run_convergence_study

# property tests draw the same examples on every run and stay cheap
settings.register_profile("hdgeig", derandomize=True, deadline=None, max_examples=40,
                          database=None)
settings.load_profile("hdgeig")


def element_ops(vertices, spaces, tau, mat=None, element=0):
    """The ElementOps of one free-standing triangle with vertices (3, 2),
    face l joining vertices l and l+1; clockwise or degenerate triangles
    raise LocalSolveError naming ``element``."""
    verts = np.asarray(vertices, dtype=float)
    bmat = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
    return ElementOps(bmat, tau.face_value(), mat or MaterialSpec.identity(),
                      reference_tables(spaces), element_hint=element)


def surrogate_seeds(sys, m):
    """The seeds of ``oracle-check`` and the m pairs of the modes run they
    come from: the surrogate run from those pairs gives the values, and
    one block solve the traces A^-1 U^T x of its Ritz vectors x.  The
    surrogate run took the pairs' Ritz vectors over: their ``ritz`` is None."""
    pairs = solve_modes(sys, m)
    surrogate = solve_linear_surrogate(sys, pairs)
    traces = sys.factorized().solve(sys.moments @ surrogate.ritz)
    return [EigenPair(value, trace, index) for index, (value, trace)
            in enumerate(zip(surrogate.values, traces.T), 1)], pairs


def newton_pairs(sys, m):
    """The paper's route as ``oracle-check`` runs it: the surrogate's m
    lowest seeds start the nonlinear eigensolve of modes 1..m, in order, on
    one shared search space; the pairs in index order."""
    seeds, _ = surrogate_seeds(sys, m)
    space = search_space(sys, seeds)
    return [solve_condensed_nonlinear(sys, seeds, i, space) for i in range(1, m + 1)]


def _tau_from_key(key):
    if isinstance(key, (int, float)):
        return TauSpec.constant(float(key))
    return {
        "one": TauSpec.one(),
        "h": TauSpec.global_h(),
        "invh": TauSpec.inverse_global_h(),
        "zero": TauSpec.zero(),
    }[key]


@pytest.fixture(scope="session")
def meshes():
    cache = {}

    def get(domain, level):
        if (domain, level) not in cache:
            build = build_square_mesh if domain == "square" else build_lshape_mesh
            cache[(domain, level)] = build(level)
        return cache[(domain, level)]

    return get


@pytest.fixture(scope="session")
def systems(meshes):
    cache = {}

    def get(domain="square", level=1, k=1, tau="one", case="equal", mat=None):
        mat = mat or MaterialSpec.identity()
        key = (domain, level, k, tau, case, mat)
        if key not in cache:
            cache[key] = assemble_condensed(
                meshes(domain, level), SpaceConfig(k, case), _tau_from_key(tau), mat
            )
        return cache[key]

    return get


@pytest.fixture(scope="session")
def eigenpairs(systems):
    """Cache of (surrogate seeds, ascending eigenpairs), as
    ``surrogate_seeds`` gives them, per configuration and mode count m: the
    first pairs of a larger run differ from an m-mode run in the last
    digits, so each m gets its own run and a test sees the same pairs
    whatever ran before it."""
    cache = {}

    def get(domain="square", level=1, k=1, tau="one", case="equal", m=1):
        key = (domain, level, k, tau, case, m)
        if key not in cache:
            sys = systems(domain, level, k, tau, case)
            cache[key] = surrogate_seeds(sys, m)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def studies():
    cache = {}

    def get(**kwargs):
        config = StudyConfig(**kwargs)
        if config not in cache:
            cache[config] = run_convergence_study(config)
        return cache[config]

    return get
