"""Every public front door refuses a bad scalar parameter with a typed error.

DOORS names each public function, method and input-class constructor that
takes a scalar parameter (annotated `float` or `int`), with valid arguments.
Each scalar parameter in turn is given NaN, +inf, -inf, True, 2.5 where an
integer is expected and a value below its bound, and every such call must
raise a BaroflowError subclass: never a bare numpy, scipy or Python error,
and never a result.  A completeness check walks the modules and fails on a
public callable with a scalar parameter that is neither a door nor on the
UNCHECKED list.  PROBES holds the refusals that front-door audits found
missing, each as its own case.
"""

import inspect
import sys
from typing import Callable, NamedTuple

import numpy as np
import pytest

import baroflow.cli  # noqa: F401  (the walk covers every module)
from baroflow import burgers, disc, geodesic, geometry, grids, jacobi, pressure, torus
from baroflow.errors import BaroflowError, DomainError, VacuumError
from oracles import integrate_geodesic

MODULES = [sys.modules[f"baroflow.{name}"] for name in (
    "errors", "grids", "pressure", "geodesic", "jacobi", "burgers", "geometry",
    "disc", "torus", "cli")]

# public callables with a scalar parameter that is not checked on entry, and why
RECORD = "a result record: the library builds it from inputs it has checked"
UNCHECKED = {
    "geodesic.rk4": "the RK4 kernel on arrays: the step loop checks dt once, before any step",
    "geometry.CurvatureReport": RECORD,
    "jacobi.GrowthReport": RECORD,
    "disc.BoundRow": RECORD,
    "torus.BoundednessReport": RECORD,
    "cli.Param": "a declaration of a CLI parameter's parser, default and bounds",
}

G = grids.CircleGrid(16)
MODEL = pressure.polytropic(1 / 3, 3.0)
STATE = geodesic.barotropic_initializer(
    grids.VectorField(G, 0.1 * np.sin(G.x)[None]), grids.ScalarField(G, np.ones(16)), MODEL)
V0 = grids.VectorField(G, np.cos(G.x)[None])
U0 = grids.ScalarField(G, 0.5 * np.sin(G.x))
RHO0 = grids.ScalarField(G, np.ones(16))
BG = disc.DiscBackground(1.0, 1.0, 1.0)
TG = grids.TorusGrid(8, 8)
TV0 = grids.VectorField(TG, np.stack([np.sin(TG.mesh[1]), np.cos(TG.mesh[0])]))
SOL = torus.synthesize(TV0, 1.0, 1.0)
# q = rho e^{0.3 sin x}: not barotropic, so the linearized equations do not hold
ENTROPIC = geodesic.FluidState(STATE.u, STATE.rho,
                               grids.ScalarField(G, np.exp(0.3 * np.sin(G.x))))
TORUS_ONES = grids.ScalarField(TG, np.ones(TG.shape))
TORUS_SHEAR = geodesic.FluidState(
    grids.VectorField(TG, np.stack([np.zeros(TG.shape), np.full(TG.shape, 0.3)])),
    TORUS_ONES, TORUS_ONES)


class Door(NamedTuple):
    """A front door: the callable, valid arguments by name, and for each
    bounded scalar parameter a value just outside its bound."""

    call: Callable
    valid: dict
    below: dict


def _run(**kw):
    # the geodesic run loop that the geodesic experiment streams
    return integrate_geodesic(STATE, MODEL, **kw)


DOORS = {
    "grids.CircleGrid": Door(grids.CircleGrid, dict(n=16), dict(n=6)),
    "grids.TorusGrid": Door(grids.TorusGrid, dict(nx=8, ny=8), dict(nx=6, ny=6)),
    "pressure.PressureModel": Door(pressure.PressureModel, dict(A=1.0, gamma=2.0),
                                   dict(A=0.0, gamma=1.0)),
    "pressure.polytropic": Door(pressure.polytropic, dict(A=1.0, gamma=2.0),
                                dict(A=0.0, gamma=1.0)),
    "geodesic.step_geodesic": Door(
        lambda **kw: geodesic.step_geodesic(STATE, geodesic.identity_flowmap(STATE.rho),
                                            MODEL, **kw),
        dict(dt=0.01), dict(dt=0.0)),
    "jacobi.linearized_step": Door(
        lambda **kw: jacobi.linearized_step(jacobi.initial_jacobi(V0), STATE,
                                            geodesic.identity_flowmap(STATE.rho), MODEL, **kw),
        dict(dt=0.01), dict(dt=0.0)),
    "jacobi.integrate_linearized": Door(
        lambda **kw: jacobi.integrate_linearized(STATE, jacobi.initial_jacobi(V0), MODEL, **kw),
        dict(t_end=0.1, dt=0.05, store_every=1), dict(t_end=-0.1, dt=0.0, store_every=0)),
    "jacobi.detect_conjugate_times": Door(
        lambda **kw: jacobi.detect_conjugate_times(STATE, V0, MODEL, **kw),
        dict(t_max=0.1, dt=0.05), dict(t_max=-0.1, dt=0.0)),
    "burgers.conjugate_times": Door(burgers.conjugate_times, dict(n=2, m_max=2),
                                    dict(n=0, m_max=0)),
    "burgers.exact_state": Door(lambda **kw: burgers.exact_state(U0, RHO0, **kw),
                                dict(t=0.5), dict(t=-0.5)),
    "burgers.exact_jacobi": Door(
        lambda **kw: burgers.exact_jacobi(U0, RHO0, grids.ScalarField(G, np.cos(G.x)), **kw),
        dict(t=0.5), dict(t=-0.5)),
    "geometry.curvature_sign_scan_1d": Door(
        lambda **kw: geometry.curvature_sign_scan_1d(MODEL, **kw),
        dict(trials=2, seed=0, n=16), dict(trials=0, seed=-1, n=6)),
    # rho0 at or below omega^2 / 2c^2 = 0.5 is a vacuum
    "disc.DiscBackground": Door(disc.DiscBackground, dict(omega=1.0, c=1.0, rho0=1.0),
                                dict(c=0.0, rho0=0.5)),
    "disc.sturm_liouville_eigs": Door(lambda **kw: disc.sturm_liouville_eigs(BG, **kw),
                                      dict(n=1, k_max=3, n_nodes=32),
                                      dict(k_max=0, n_nodes=15)),
    "disc.characteristic_cubic_pq": Door(disc.characteristic_cubic_pq,
                                         dict(lam=5.0, n=1, omega=1.0, c=1.0),
                                         dict(lam=0.0, c=0.0)),
    "disc.characteristic_roots": Door(disc.characteristic_roots,
                                      dict(lam=5.0, n=1, omega=1.0, c=1.0),
                                      dict(lam=0.0, c=0.0)),
    "disc.bessel_first_root": Door(disc.bessel_first_root, dict(n=1), dict(n=-1)),
    "torus.TorusModeSolution": Door(
        lambda **kw: torus.TorusModeSolution(SOL.grid, SOL.f_hat, SOL.z, **kw),
        dict(omega=1.0, c=1.0), dict(c=0.0)),
    "torus.TorusModeSolution.j_at": Door(SOL.j_at, dict(t=1.0), {}),
    "torus.synthesize": Door(lambda **kw: torus.synthesize(TV0, **kw),
                             dict(omega=1.0, c=1.0), dict(c=0.0)),
}


def _scalar_kind(annotation) -> str | None:
    """"float" or "int" for a scalar annotation (or one that allows None),
    written as text, as a forward reference (a NamedTuple's) or as the type."""
    text = getattr(annotation, "__forward_arg__", getattr(annotation, "__name__", annotation))
    text = text.removesuffix(" | None") if isinstance(text, str) else ""
    return text if text in ("float", "int") else None


def _scalar_parameters():
    """module.name (or module.Class.method) -> {parameter: "float" | "int"}
    for every public callable of the package with a scalar parameter."""
    found = {}
    for module in MODULES:
        layer = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            targets = [(f"{layer}.{name}", obj)]
            if inspect.isclass(obj):
                targets += [(f"{layer}.{name}.{attr}", member)
                            for attr, member in vars(obj).items()
                            if not attr.startswith("_") and inspect.isfunction(member)]
            for qualified, target in targets:
                if not callable(target):
                    continue
                try:
                    params = inspect.signature(target).parameters
                except (TypeError, ValueError):
                    continue
                kinds = {p: _scalar_kind(par.annotation) for p, par in params.items()}
                kinds = {p: kind for p, kind in kinds.items() if kind}
                if kinds:
                    found[qualified] = kinds
    return found


SCALARS = _scalar_parameters()


def test_every_scalar_front_door_is_covered():
    assert set(SCALARS) - set(DOORS) - set(UNCHECKED) == set()
    assert set(DOORS) <= set(SCALARS) and set(UNCHECKED) <= set(SCALARS)
    for qualified, door in DOORS.items():
        assert set(SCALARS[qualified]) <= set(door.valid), qualified
        assert set(door.below) <= set(SCALARS[qualified]), qualified


def test_the_walk_sees_functions_methods_and_constructors():
    assert SCALARS["burgers.conjugate_times"] == {"n": "int", "m_max": "int"}
    assert SCALARS["torus.TorusModeSolution.j_at"] == {"t": "float"}
    assert SCALARS["disc.DiscBackground"] == {"omega": "float", "c": "float", "rho0": "float"}


@pytest.mark.parametrize("qualified", sorted(DOORS))
def test_valid_arguments_are_accepted(qualified):
    door = DOORS[qualified]
    door.call(**door.valid)


def _cases():
    for qualified, door in sorted(DOORS.items()):
        for param, kind in SCALARS[qualified].items():
            bad = [("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf), ("True", True)]
            if kind == "int":
                bad.append(("2.5", 2.5))
            if param in door.below:
                bad.append(("below", door.below[param]))
            for label, value in bad:
                yield pytest.param(qualified, param, value, id=f"{qualified}-{param}-{label}")


@pytest.mark.parametrize("qualified, param, value", _cases())
def test_a_bad_scalar_is_a_typed_error(qualified, param, value):
    door = DOORS[qualified]
    try:
        result = door.call(**{**door.valid, param: value})
    except BaroflowError:
        return
    pytest.fail(f"{qualified}({param}={value!r}) returned {result!r}")


PROBES = {
    "polytropic(nan, 3)": lambda: pressure.polytropic(np.nan, 3.0),
    "polytropic(inf, 3)": lambda: pressure.polytropic(np.inf, 3.0),
    "polytropic(1, inf)": lambda: pressure.polytropic(1.0, np.inf),
    "polytropic(1, '3')": lambda: pressure.polytropic(1.0, "3"),
    "DiscBackground(1, inf, 1)": lambda: disc.DiscBackground(1.0, np.inf, 1.0),
    "rayleigh on DiscBackground(nan, 1, 1)":
        lambda: disc.rayleigh_bound_check(disc.DiscBackground(np.nan, 1.0, 1.0), [1.0, 2.0]),
    "bessel_first_root(True)": lambda: disc.bessel_first_root(True),
    "bessel_first_root(2.5)": lambda: disc.bessel_first_root(2.5),
    "sturm_liouville_eigs n_nodes 32.5": lambda: disc.sturm_liouville_eigs(BG, 1, 3, 32.5),
    "sturm_liouville_eigs n 1.5": lambda: disc.sturm_liouville_eigs(BG, 1.5, 3),
    "characteristic_roots(nan, 1, 1, 1)": lambda: disc.characteristic_roots(np.nan, 1, 1, 1),
    "conjugate_times(1.5, 2)": lambda: burgers.conjugate_times(1.5, 2),
    "conjugate_times(True, True)": lambda: burgers.conjugate_times(True, True),
    "integrate_geodesic store_every=True": lambda: _run(t_end=0.1, dt=0.05, store_every=True),
    "integrate_geodesic dt=True": lambda: _run(t_end=0.1, dt=True),
    "curvature_sign_scan_1d(model, True, 0)":
        lambda: geometry.curvature_sign_scan_1d(MODEL, True, 0),
    "CircleGrid(16.0)": lambda: grids.CircleGrid(16.0),
    "synthesize(v0, nan, 1)": lambda: torus.synthesize(TV0, np.nan, 1.0),
    "synthesize(v0, 1, nan)": lambda: torus.synthesize(TV0, 1.0, np.nan),
    "j_at(True)": lambda: SOL.j_at(True),
    # past the backward shock at t = -2 of this datum
    "exact_state(0.5 sin x, 1, t=-3)": lambda: burgers.exact_state(U0, RHO0, -3.0),
    "growth_report with more times than states":
        lambda: jacobi.growth_report([0.0, 0.1], [jacobi.initial_jacobi(V0)], V0),
    # finite inputs whose arithmetic leaves the floats
    "DiscBackground(1e200, 1, 1)": lambda: disc.DiscBackground(1e200, 1.0, 1.0),
    "DiscBackground(1, 1e-200, 1)": lambda: disc.DiscBackground(1.0, 1e-200, 1.0),
    "sturm_liouville_eigs on DiscBackground(1e100, 1, 1e300)":
        lambda: disc.sturm_liouville_eigs(disc.DiscBackground(1e100, 1.0, 1e300), 1, 3),
    "characteristic_cubic_pq(5, 1, 1e200, 1)":
        lambda: disc.characteristic_cubic_pq(5.0, 1, 1e200, 1.0),
    "characteristic_roots(5, 1, 1e60, 1)": lambda: disc.characteristic_roots(5.0, 1, 1e60, 1.0),
    "integrate_linearized t_end=10**400": lambda: jacobi.integrate_linearized(
        STATE, jacobi.initial_jacobi(V0), MODEL, t_end=10**400, dt=0.01),
    # LAPACK's bisection squares the entries: here the largest, 3.2e-295,
    # squares to below the normal floats and the spectrum came out wrong
    "sturm_liouville_eigs on DiscBackground(0, 1, 1e-300)":
        lambda: disc.sturm_liouville_eigs(disc.DiscBackground(0.0, 1.0, 1e-300), 1, 3),
    # p^3 underflows while p > 0, so q^2 >= p^3 would flag a stable mode
    "characteristic_roots(5.78, 0, 0, 1e-150)":
        lambda: disc.characteristic_roots(5.783199058396027, 0, 0.0, 1e-150),
    "characteristic_roots(4.37, 0, 1e-100, 1e-100)":
        lambda: disc.characteristic_roots(4.3698107985755, 0, 1e-100, 1e-100),
    # backgrounds whose Jacobi fields the linearized equations get wrong:
    # q != rho (no delta q is carried), and no flow map to carry G along
    "linearized_step with q != rho": lambda: jacobi.linearized_step(
        jacobi.initial_jacobi(V0), ENTROPIC, geodesic.identity_flowmap(STATE.rho), MODEL, 0.01),
    "integrate_linearized with q != rho": lambda: jacobi.integrate_linearized(
        ENTROPIC, jacobi.initial_jacobi(V0), MODEL, t_end=0.1, dt=0.05),
    "detect_conjugate_times with q != rho":
        lambda: jacobi.detect_conjugate_times(ENTROPIC, V0, MODEL, t_max=0.1, dt=0.05),
    "linearized_step on the circle without a flow map":
        lambda: jacobi.linearized_step(jacobi.initial_jacobi(V0), STATE, None, MODEL, 0.01),
    "detect_conjugate_times on the torus":
        lambda: jacobi.detect_conjugate_times(TORUS_SHEAR, TV0, MODEL, t_max=0.1, dt=0.05),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_is_a_domain_error(probe):
    with pytest.raises(DomainError):
        PROBES[probe]()


def test_a_vacuum_stays_a_vacuum_error():
    with pytest.raises(VacuumError):
        disc.DiscBackground(1.0, 1.0, 0.5)
