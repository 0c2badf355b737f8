"""disclab: a power-series laboratory for linear ODEs on the unit disc.

Solves ``f'' + A f = 0`` (and order-3 relatives) by truncated Taylor
recurrences, estimates the classical function-space norms (Hardy, growth,
Bloch, BMOA, Carleson) on polar quadrature grids, evaluates the coefficient
conditions under which solutions stay in those spaces, and verifies the
supporting identities (Jensen, Littlewood-Paley / Hardy-Stein-Spencer,
Green-type pairings, weighted Bergman reproducing kernels) at desk scale.

The public names are loaded on first access (PEP 562), so ``import
disclab`` followed by ``disclab.QuadratureGrid()`` loads only the grid
and series modules.
"""

from importlib import import_module

# the public names, by the module that defines them
_MODULES = {
    "conditions": (
        "ConditionReport", "LacunaryReport", "apply_SA", "bmoa_dd", "bmoa_h1_cond",
        "cauchy_bound", "decay_conditions", "lacunary_lmoa", "lacunary_series",
        "lalpha_norm", "lmoa_quantity", "lmoa_square", "log_reciprocal_coefficient",
        "moment_log_integral", "nehari_sup", "order3_area", "order3_growth",
    ),
    "geometry": (
        "SeparationReport", "ZeroSequence", "greedy_partition", "hyp_dist",
        "in_carleson_square", "jensen_residual", "moebius", "moebius_deriv",
        "pseudo_hyp", "separation_constants", "separation_sums",
    ),
    "grids": ("QuadratureGrid",),
    "hardy": (
        "CorpusFunction", "MembershipReport", "NontangentialParams", "default_corpus",
        "fit_cp_exponent", "hp_membership_experiment", "hss_residual",
        "loc_univ_margin", "nonvanishing_bound_check", "nt_max", "prop_main_sides",
        "shadow_length", "zero_free_polynomial",
    ),
    "norms": (
        "NormEstimate", "QuadratureError", "bloch_norm", "bmoa_garsia", "bmoa_h2_def",
        "carleson_norm", "decay_profile", "growth_norm", "hp_norm", "mp_mean",
    ),
    "ode": (
        "NamedExample", "ODEProblem", "hille_zero_table", "named_example", "residual",
        "solve_series", "symmetric_power_problem", "transform_order2",
        "transform_order3",
    ),
    "series": (
        "AccuracyWarning", "PowerSeries", "compose_moebius", "sample_moduli",
        "sample_rings",
    ),
    "weights": (
        "BlochBoundReport", "BoundNotApplicableError", "RadialWeight", "StandardWeight",
        "bergman_inner", "bloch_kernel_quantity", "bloch_solution_bound",
        "green_boundary_residual", "green_identity_residual",
        "kernel_derivative_residual", "kernel_eval", "moment_identity_gap",
        "pointwise_growth_margin", "regularity_constants",
    ),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name (or a submodule) on first access; cached in the package."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _MODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
