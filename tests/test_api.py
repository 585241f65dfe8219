"""The public surface, pinned: a name added or deleted must edit this file."""

import dataclasses
import types

import ctxpoly as cp

PUBLIC_NAMES = [
    "Behavior", "CapExceededError", "CloningDecomposition", "DISTANCE_TOL", "DocumentError",
    "ENUMERATION_CAP", "EquivalenceVector", "FacetWitness", "FreeOperation", "Inequality",
    "InequalitySet", "LP_TOL", "LinearProgram", "LpError", "LpNumericalError", "LpOutcome",
    "NcModel", "NcVerdict", "OnticState", "PROB_TOL", "ProductCountsReport", "QuantumRealization",
    "Scenario", "SecondaryProcedures", "ShapeMismatchError", "SimulationError", "SimulationWitness",
    "TransportResult", "TransportedEquivalences", "UnsupportedScenarioError", "ValidationReport",
    "Violation", "apply_free_operation", "behavior_from_quantum", "canonical_simplest_realization",
    "cloning_scenario", "compose_behaviors", "compose_scenarios", "contextual_vertex_path",
    "dichotomic_povm", "enumerate_behavior_vertices", "enumerate_ontic_states", "erase_measurements",
    "evaluate_inequalities", "find_simulation", "is_noncontextual", "l1_distance",
    "lifted_simplest_inequalities", "load_document", "make_simplest_scenario",
    "maximally_mixed_realization", "power_behavior", "power_scenario", "product_counts_check",
    "save_document", "secondary_procedures", "simplest_contextual_vertices", "simplest_permutations",
    "simplest_scenario_inequalities", "simulation_to_free_operation", "solve_lp", "split_blocks",
    "to_doc", "transport_equivalences", "uniform_behavior", "validate_behavior",
    "validate_free_operation", "validate_nc_model", "validate_quantum_realization",
    "validate_scenario", "verify_quantum_equivalences", "witness_all_facets",
]


def test_public_names_are_pinned():
    # Submodules become attributes of the package once anything imports
    # them, so they are not part of the pin.
    names = [n for n in dir(cp) if not n.startswith("_") and not isinstance(getattr(cp, n), types.ModuleType)]
    assert sorted(names) == PUBLIC_NAMES


def test_linear_program_surface_is_pinned():
    # Its two states: rows added one at a time (_eq, _ineq) or a compiled
    # model with its right-hand sides (_model).
    fields = [field.name for field in dataclasses.fields(cp.LinearProgram)]
    assert fields == ["n_vars", "objective", "lower_bounds", "upper_bounds", "_eq", "_ineq", "_model"]
    members = sorted(n for n in dir(cp.LinearProgram) if not n.startswith("_"))
    assert members == [
        "add_eq", "add_ineq", "compiled_lp", "compiled_rows", "eq_constraints", "from_compiled",
        "ineq_constraints", "lower_bounds", "objective", "upper_bounds",
    ]
