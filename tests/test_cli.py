import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ctxpoly as cp
from ctxpoly.cli import DEFAULT_TOLERANCE, build_parser, run_cli, verdict_doc
from ctxpoly.documents import save_document, to_doc


@pytest.fixture()
def docs(tmp_path, b_si, canonical_behavior):
    paths = {}
    for name, value in (
        ("si", b_si),
        ("table1", canonical_behavior),
        ("uniform", cp.uniform_behavior(b_si)),
        ("gamma", cp.simplest_permutations()["swap_measurements"]),
        ("mix", _half_swap()),
    ):
        path = tmp_path / f"{name}.json"
        path.write_bytes(save_document(value))
        paths[name] = str(path)
    return paths


def _half_swap(**maps):
    """The mixing map that averages preparations 1 with 2 and 3 with 4, a
    map that is not a selector, with ``maps`` replacing some of its parts."""
    mix = 0.5 * np.eye(4) + 0.5 * np.eye(4)[:, [1, 0, 3, 2]]
    return cp.FreeOperation(**{"q_P": mix, "q_M": np.eye(2), "q_O": np.broadcast_to(np.eye(2), (2, 2, 2)).copy(), **maps})


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_contextual(capsys, docs):
    code, out, _ = run(capsys, "check", "--scenario", docs["si"], "--behavior", docs["table1"])
    assert code == 0
    result = json.loads(out)
    assert result["contextual"] is True
    assert result["violated"] == "h7"


def test_check_matches_library_bit_for_bit(capsys, docs, b_si, canonical_behavior):
    _, out, _ = run(capsys, "check", "--scenario", docs["si"], "--behavior", docs["table1"])
    expected = json.dumps(
        verdict_doc(cp.is_noncontextual(b_si, canonical_behavior)), separators=(",", ":")
    )
    assert out.strip() == expected


def test_distance_zero_for_uniform(capsys, docs):
    code, out, _ = run(capsys, "distance", "--scenario", docs["si"], "--behavior", docs["uniform"])
    assert code == 0
    assert json.loads(out) == {"d": 0.0}


def test_vertices_counts(capsys, docs):
    code, out, _ = run(capsys, "vertices", "--scenario", docs["si"])
    assert code == 0
    assert out.strip() == '{"count":36,"contextual":8}'


def test_validate_reports_ok(capsys, docs):
    code, out, _ = run(capsys, "validate", "--scenario", docs["si"], "--behavior", docs["table1"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_respects_tolerance_flag(capsys, tmp_path, docs, canonical_behavior):
    probs = canonical_behavior.probs.copy()
    probs[0, 0, 1] += 1e-6
    probs[0, 0, 0] -= 1e-6  # keeps the outcome sum but bends the equivalence
    wobbly = tmp_path / "wobbly.json"
    wobbly.write_bytes(save_document(cp.Behavior(probs)))
    code, out, _ = run(capsys, "validate", "--scenario", docs["si"], "--behavior", str(wobbly))
    assert code == 0 and json.loads(out)["ok"] is False
    code, out, _ = run(
        capsys, "validate", "--scenario", docs["si"], "--behavior", str(wobbly),
        "--tolerance", "1e-3",
    )
    assert code == 0 and json.loads(out)["ok"] is True


def test_apply_permutation(capsys, docs, canonical_behavior):
    code, out, _ = run(
        capsys, "apply",
        "--scenario", docs["si"], "--behavior", docs["table1"], "--operation", docs["gamma"],
    )
    assert code == 0
    result = json.loads(out)
    image = np.array(result["behavior"]["probs"])
    assert np.allclose(image[0], canonical_behavior.probs[1])
    assert result["transport"]["prep"] == ["transported"]


def test_erase_to_single_measurement(capsys, docs):
    code, out, _ = run(
        capsys, "erase", "--scenario", docs["si"], "--behavior", docs["table1"], "--keep", "0",
    )
    assert code == 0
    result = json.loads(out)
    assert result["scenario"]["meas"] == 1


def test_compose_and_power(capsys, docs):
    code, out, _ = run(
        capsys, "compose",
        "--scenario", docs["si"], "--scenario2", docs["si"],
        "--behavior", docs["table1"], "--behavior2", docs["uniform"],
    )
    assert code == 0
    result = json.loads(out)
    assert result["scenario"]["preps"] == 8
    assert np.array(result["behavior"]["probs"]).shape == (4, 8, 2)

    code, out, _ = run(capsys, "power", "--scenario", docs["si"], "--n", "3")
    assert json.loads(out)["scenario"]["meas"] == 6


def test_simulate_subcommand(capsys, tmp_path, b6_behavior, canonical_behavior):
    sim = tmp_path / "b6.json"
    tgt = tmp_path / "si_target.json"
    sim.write_bytes(save_document(b6_behavior))
    tgt.write_bytes(save_document(canonical_behavior))
    code, out, _ = run(capsys, "simulate", "--simulators", str(sim), "--target", str(tgt))
    assert code == 0
    result = json.loads(out)
    assert result["simulable"] is True
    assert result["shared_post_processing"] is True


def test_simulate_infeasible_is_still_a_verdict(capsys, tmp_path):
    sim = tmp_path / "trivial.json"
    tgt = tmp_path / "ztarget.json"
    sim.write_bytes(save_document(cp.Behavior(np.full((1, 2, 2), 0.5))))
    tgt.write_bytes(save_document(cp.Behavior(np.array([[[0.0, 1.0], [1.0, 0.0]]]))))
    code, out, _ = run(capsys, "simulate", "--simulators", str(sim), "--target", str(tgt))
    assert code == 0
    assert json.loads(out) == {"simulable": False}


def test_simulate_refuses_a_table_without_outcomes(capsys, tmp_path):
    # The one empty table a document can hold; it got numpy's "zero-size
    # array to reduction operation minimum".
    path = tmp_path / "empty.json"
    path.write_bytes(save_document(cp.Behavior(np.zeros((2, 2, 0)))))
    code, out, err = run(capsys, "simulate", "--simulators", str(path), "--target", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: simulator behavior invalid: ") and "nonpositive-count at ('outcomes',)" in err


@pytest.mark.parametrize("command", ["check", "distance"])
def test_check_and_distance_refuse_response_functions_that_are_not_deterministic(capsys, tmp_path, coin_flip, command):
    # Both printed a verdict: {"contextual":true,"violated":"lp-infeasible"} and d = 1.0.
    argv = [command]
    for name, document in zip(("scenario", "behavior"), coin_flip):
        (tmp_path / name).write_bytes(save_document(document))
        argv += [f"--{name}", str(tmp_path / name)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: measurements [0, 1, 2] admit a response function that is not deterministic")


def test_secondary_subcommand(capsys, tmp_path, docs, b_si, canonical_behavior):
    rng = np.random.default_rng(1)
    from ctxpoly.sampling import perturbed_behavior

    noisy = tmp_path / "noisy.json"
    noisy.write_bytes(save_document(perturbed_behavior(canonical_behavior, rng, 0.01)))
    code, out, _ = run(capsys, "secondary", "--scenario", docs["si"], "--behavior", str(noisy))
    assert code == 0
    result = json.loads(out)
    repaired = cp.Behavior(np.array(result["behavior"]["probs"]))
    assert cp.validate_behavior(b_si, repaired, tol=1e-9).ok


def test_quantum_demo(capsys):
    code, out, _ = run(capsys, "quantum-demo")
    assert code == 0
    result = json.loads(out)
    assert list(result["violations"]) == ["h7"]
    table = np.array(result["behavior"]["probs"])[:, :, 1]
    assert table[0, 0] == pytest.approx(np.sin(np.pi / 8) ** 2, abs=1e-12)


def test_witness_subcommand(capsys):
    code, out, _ = run(capsys, "witness", "--n", "2")
    assert code == 0
    result = json.loads(out)
    assert len(result["facets"]) == 16
    assert all(f["violation"] > 0.41 for f in result["facets"])


def test_cloning_subcommand(capsys):
    code, out, _ = run(capsys, "cloning")
    assert code == 0
    result = json.loads(out)
    assert result["scenario"]["preps"] == 12
    assert result["decomposition"]["measurement_map"][0] == list(range(6))


def test_format_text_writes_summary_to_stderr(capsys, docs):
    code, out, err = run(
        capsys, "check", "--scenario", docs["si"], "--behavior", docs["table1"], "--format", "text",
    )
    assert code == 0
    assert json.loads(out)["contextual"] is True
    assert "contextual" in err


def test_output_flag_writes_file(tmp_path, capsys, docs):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "vertices", "--scenario", docs["si"], "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["count"] == 36


def test_bad_document_exits_2_without_output(capsys, tmp_path, docs):
    broken = tmp_path / "broken.json"
    broken.write_text('{"kind":"behavior"')
    code, out, err = run(capsys, "check", "--scenario", docs["si"], "--behavior", str(broken))
    assert code == 2
    assert out == ""
    assert "error" in err


def test_kind_mismatch_exits_2(capsys, docs):
    code, out, _ = run(capsys, "check", "--scenario", docs["table1"], "--behavior", docs["table1"])
    assert code == 2
    assert out == ""


def test_unknown_flag_exits_2(capsys, docs):
    code, _, _ = run(capsys, "check", "--scenario", docs["si"], "--bogus", "1")
    assert code == 2


def test_cap_exceeded_exits_2(capsys, tmp_path, b_si):
    code, out, err = run(capsys, "witness", "--n", "5")
    assert (code, out, err) == (2, "", "error: facet witnessing capped at n=4, asked for n=5\n")
    power = cp.power_scenario(b_si, 10)  # 2^20 response vectors
    scenario, behavior = tmp_path / "scenario.json", tmp_path / "behavior.json"
    scenario.write_bytes(save_document(power))
    behavior.write_bytes(save_document(cp.uniform_behavior(power)))
    for command in ("check", "distance"):
        code, out, err = run(capsys, command, "--scenario", str(scenario), "--behavior", str(behavior))
        assert (code, out) == (2, "")
        assert err == "error: ontic enumeration needs 1048576 response vectors, cap is 1000000\n"


def test_unknown_command_exits_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_missing_file_exits_2(capsys):
    code, out, err = run(capsys, "vertices", "--scenario", "/nonexistent/si.json")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "probs",
    [
        np.full((3, 4, 2), 0.5),  # one measurement too many
        np.array([[[0.2, 0.8]] + [[0.5, 0.5]] * 3] * 2),  # breaks the preparation equivalence
        np.array([[[np.nan, 0.5]] + [[0.5, 0.5]] * 3] * 2),
    ],
)
def test_check_and_distance_reject_behavior_invalid_in_scenario(capsys, tmp_path, docs, probs):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "behavior", "probs": probs.tolist()}))
    for command in ("check", "distance"):
        code, out, err = run(capsys, command, "--scenario", docs["si"], "--behavior", str(path))
        assert code == 2, command
        assert out == ""
        assert "error" in err


def test_check_and_distance_reject_invalid_scenario(capsys, tmp_path, docs, malformed_scenario):
    path = tmp_path / "bad-scenario.json"
    path.write_bytes(save_document(malformed_scenario[0]))
    for command in ("check", "distance"):
        code, out, err = run(capsys, command, "--scenario", str(path), "--behavior", docs["uniform"])
        assert code == 2, command
        assert out == ""
        assert err.startswith("error: scenario invalid: ")


def test_vertices_rejects_invalid_scenario(capsys, tmp_path, malformed_scenario):
    # A mask of the wrong shape used to escape as an IndexError, a negative
    # count as numpy's negative dimensions, and a short equivalence as a
    # mix of weight magnitudes.
    path = tmp_path / "bad-scenario.json"
    path.write_bytes(save_document(malformed_scenario[0]))
    code, out, err = run(capsys, "vertices", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: scenario invalid: ")


@pytest.mark.parametrize(
    "command, extra",
    [
        ("secondary", ("--behavior", "uniform")),
        ("apply", ("--behavior", "uniform", "--operation", "gamma")),
        ("erase", ("--behavior", "uniform", "--keep", "0")),
        ("compose", ("--scenario2", "si")),
        ("power", ("--behavior", "uniform", "--n", "2")),
    ],
)
def test_scenario_commands_reject_invalid_scenario(capsys, tmp_path, docs, malformed_scenario, command, extra):
    # Some of these used to print a result (a mask of the wrong shape through
    # secondary, apply and erase), most raised a raw numpy error, and power
    # on a scenario without outcomes divided by zero.
    path = tmp_path / "bad-scenario.json"
    path.write_bytes(save_document(malformed_scenario[0]))
    argv = [docs.get(arg, arg) for arg in extra]
    code, out, err = run(capsys, command, "--scenario", str(path), *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: scenario invalid: ")


@pytest.mark.parametrize(
    "command, extra",
    [
        ("simulate", ("--simulators", "bad", "--target", "bad")),
        ("simulate", ("--simulators", "table1", "--target", "bad")),
        ("secondary", ("--scenario", "si", "--behavior", "bad")),
        ("apply", ("--scenario", "si", "--behavior", "bad", "--operation", "gamma")),
        ("erase", ("--scenario", "si", "--behavior", "bad", "--keep", "0")),
    ],
)
@pytest.mark.parametrize("probs", [[1.5, -0.5], [0.9, 0.9]])
def test_table_commands_refuse_tables_that_are_not_distributions(capsys, tmp_path, docs, canonical_behavior, command, extra, probs):
    # simulate printed "simulable": true for a table out of [0, 1], and
    # secondary and erase printed results for outcome sums of 1.8.
    table = canonical_behavior.probs.copy()
    table[0, 0] = probs
    path = tmp_path / "bad.json"
    path.write_bytes(save_document(cp.Behavior(table)))
    code, out, err = run(capsys, command, *[{**docs, "bad": str(path)}.get(arg, arg) for arg in extra])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "behavior invalid: " in err


@pytest.mark.parametrize(
    "module, call, command",
    [
        ("ncmodel", lambda s, b: cp.is_noncontextual(s, b), "check"),
        ("monotone", lambda s, b: cp.l1_distance(s, b), "distance"),
        ("simulability", lambda s, b: cp.find_simulation(b, cp.uniform_behavior(s)), None),
        ("freeops", lambda s, b: cp.secondary_procedures(s, b), None),
    ],
)
def test_a_status_the_lp_rules_out_is_a_numerical_failure(capsys, monkeypatch, docs, b_si, canonical_behavior, module, call, command):
    # Each LP's form rules out the status its caller refuses (the distance
    # LP is feasible and bounded below by t >= 0), so no real solve reaches
    # these raises; a patched solve_lp does.
    monkeypatch.setattr(getattr(cp, module), "solve_lp", lambda lp, tol=cp.LP_TOL: cp.LpOutcome(cp.lp.UNBOUNDED))
    cp.ncmodel.PROGRAM_CACHE.clear()  # a kept membership outcome would skip the solve
    with pytest.raises(cp.LpNumericalError, match="LP returned unbounded$"):
        call(b_si, canonical_behavior)
    if command is not None:
        cp.ncmodel.PROGRAM_CACHE.clear()
        code, out, err = run(capsys, command, "--scenario", docs["si"], "--behavior", docs["table1"])
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: ") and "returned unbounded" in err


def test_apply_exits_3_when_the_projection_fails(capsys, docs, nnls_fails):
    code, out, err = run(capsys, "apply", "--scenario", docs["si"], "--behavior", docs["table1"], "--operation", docs["mix"])
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: ") and "NNLS did not converge" in err


#: The first map of the dense-mixing-map probe (ROADMAP item 7:
#: ``default_rng(1)``, 5000 Dirichlet maps) on which the transport failed when
#: it was a HiGHS QP, and the target there, an image of convex weights.
_DENSE_MAP = np.array([
    [0.17597900672681438, 0.2506025803412799, 0.3199064580782787, 0.05791643887271974],
    [0.00608259666821488, 0.00249257842023403, 0.3080848999310892, 0.0204971009213039],
    [0.2983025883059576, 0.10235435297049325, 0.3230668398514322, 0.31319398731856607],
    [0.5196358082990131, 0.6445504882679927, 0.04894180213919996, 0.6083924728874103],
])
_DENSE_TARGET = np.array([0.22007109326461796, 0.10742826311610854, 0.3070716274452311, 0.36542901617404244])


def test_apply_transports_through_a_dense_mixing_map(capsys, tmp_path):
    # Every input validates; this exited 3 with "numerical failure: ...
    # Solve error".  The map is invertible, so the transport is its inverse.
    scenario = cp.Scenario(4, 2, 2, (cp.EquivalenceVector(_DENSE_TARGET, _DENSE_MAP @ np.full(4, 0.25)),))
    paths = {}
    for name, value in (("scenario", scenario), ("behavior", cp.uniform_behavior(scenario)), ("operation", _half_swap(q_P=_DENSE_MAP))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_bytes(save_document(value))
    code, out, err = run(capsys, "apply", *(arg for name, path in paths.items() for arg in (f"--{name}", str(path))))
    assert (code, err) == (0, "")
    result = json.loads(out)
    assert result["transport"] == {"prep": ["transported"], "meas": []}
    image = result["scenario"]["prep_equivs"][0]
    assert np.allclose(image["alpha"], np.linalg.solve(_DENSE_MAP, _DENSE_TARGET), rtol=0.0, atol=1e-12)
    assert np.allclose(image["beta"], np.full(4, 0.25), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "maps",
    [
        {"q_P": np.full((4, 4), 0.5)},  # columns sum to 2: every p(k|i,j) of the image was 1.0
        {"q_O": np.array([[[1.5, 0.0], [-0.5, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])},  # a -0.5 entry
        {"q_P": np.zeros((4, 0))},  # the image would have no preparations
        {"q_M": np.zeros((2, 0))},  # nor measurements
    ],
    ids=["q_P-column-sum", "q_O-negative-entry", "q_P-empty-new-axis", "q_M-empty-new-axis"],
)
def test_apply_rejects_an_operation_that_is_not_free(capsys, tmp_path, docs, maps):
    # Each used to exit 0 and print an image.
    path = tmp_path / "not-free.json"
    path.write_bytes(save_document(_half_swap(**maps)))
    code, out, err = run(capsys, "apply", "--scenario", docs["si"], "--behavior", docs["table1"], "--operation", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: free operation invalid: ")


def ctx_process(env, *argv, flags=()):
    return subprocess.run(
        [sys.executable, *flags, "-m", "ctxpoly.cli", *argv], capture_output=True, env=env, timeout=60
    )


@pytest.mark.parametrize("command", ["check", "distance", "apply"])
def test_ctx_process_prints_what_run_cli_prints(capsys, docs, src_env, command):
    # apply with a mixing map solves the minimum-norm transport, which used
    # to import scipy.optimize and scipy.linalg.
    operation = ("--operation", docs["mix"]) if command == "apply" else ()
    for behavior in ("table1", "uniform"):
        argv = (command, "--scenario", docs["si"], "--behavior", docs[behavior], *operation)
        # -X importtime lists on stderr every module the process imports.
        process = ctx_process(src_env, *argv, flags=("-X", "importtime"))
        code, out, _ = run(capsys, *argv)
        assert process.returncode == code == 0
        assert process.stdout == out.encode()
        imported = {line.rsplit("|", 1)[-1].strip() for line in process.stderr.decode().splitlines()}
        assert "ctxpoly.lp" in imported
        assert not imported & {"scipy.optimize", "scipy.linalg"}


@pytest.mark.parametrize("malformed_scenario", ["zero-preps"], indirect=True)
def test_ctx_process_rejects_invalid_scenario(tmp_path, docs, src_env, malformed_scenario):
    path = tmp_path / "bad-scenario.json"
    path.write_bytes(save_document(malformed_scenario[0]))
    process = ctx_process(src_env, "check", "--scenario", str(path), "--behavior", docs["uniform"])
    assert process.returncode == 2
    assert process.stdout == b""
    assert process.stderr.decode().startswith("error: scenario invalid: ")


def test_vertices_checks_its_scenario_at_the_tolerance_flag(capsys, tmp_path):
    # Both sides sum to 1 + 2e-8, and their weight magnitudes differ by
    # 2e-8: the enumeration reads them within the tolerance flag.
    rounded = cp.EquivalenceVector([0.50000002, 0.5, 0.0, 0.0], [0.0, 0.0, 0.50000002, 0.5])
    path = tmp_path / "rounded-scenario.json"
    path.write_bytes(save_document(cp.Scenario(4, 2, 2, (rounded,))))
    code, out, err = run(capsys, "vertices", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: scenario invalid: ")
    code, out, _ = run(capsys, "vertices", "--scenario", str(path), "--tolerance", "1e-6")
    assert code == 0
    # The membership LPs judge at 1e-6 too: a deterministic vertex misses
    # the rounded equivalence by 2e-8.
    assert json.loads(out) == {"count": 36, "contextual": 8}


def test_vertices_read_weight_magnitudes_at_the_tolerance_flag(capsys, tmp_path):
    # The weight magnitudes differ by 2e-8, more than the default tolerance.
    near_even = cp.EquivalenceVector([0.5 + 1e-8, 0.5 - 1e-8, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5])
    path = tmp_path / "near-even-scenario.json"
    path.write_bytes(save_document(cp.Scenario(4, 2, 2, (near_even,))))
    code, out, err = run(capsys, "vertices", "--scenario", str(path))
    assert (code, out) == (2, "")
    assert err == "error: prep equivalence mixes weight magnitudes; vertices may be fractional\n"
    code, out, _ = run(capsys, "vertices", "--scenario", str(path), "--tolerance", "1e-6")
    assert code == 0
    assert json.loads(out) == {"count": 36, "contextual": 8}


def test_check_and_distance_decide_at_the_tolerance_flag(capsys, tmp_path, docs, b_si, si_vertices):
    # 3e-7 moved between the outcomes of one cell of a noncontextual vertex
    # breaks the preparation equivalence by 1.5e-7: bad input at the default
    # tolerance, noncontextual at 1e-6, where its LPs judge it too.
    vertex = next(v for v in si_vertices if not cp.is_noncontextual(b_si, v).contextual)
    probs = vertex.probs.copy()
    k = int(np.argmax(probs[0, 0]))
    probs[0, 0, [k, 1 - k]] += [-3e-7, 3e-7]
    path = tmp_path / "nudged.json"
    path.write_bytes(save_document(cp.Behavior(probs)))
    common = ("--scenario", docs["si"], "--behavior", str(path))
    for command, key, expected in (("check", "contextual", False), ("distance", "d", 0.0)):
        code, out, _ = run(capsys, command, *common)
        assert code == 2 and out == ""
        code, out, _ = run(capsys, command, *common, "--tolerance", "1e-6")
        assert code == 0
        assert json.loads(out)[key] == expected


@pytest.mark.parametrize(
    "command, extra",
    [
        ("erase", ("--behavior", "uniform", "--keep", "0")),
        ("compose", ("--scenario2", "si")),
        ("power", ("--behavior", "uniform", "--n", "2")),
    ],
)
def test_scenario_commands_check_at_the_tolerance_flag(capsys, tmp_path, docs, command, extra):
    # Both sides sum to 1 + 2e-8: invalid at the default 1e-8, valid at 1e-6.
    rounded = cp.EquivalenceVector([0.50000002, 0.5, 0.0, 0.0], [0.0, 0.0, 0.50000002, 0.5])
    path = tmp_path / "rounded-scenario.json"
    path.write_bytes(save_document(cp.Scenario(4, 2, 2, (rounded,))))
    argv = (command, "--scenario", str(path), *(docs.get(arg, arg) for arg in extra))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: scenario invalid: ") and "normalized" in err
    code, out, _ = run(capsys, *argv, "--tolerance", "1e-6")
    assert code == 0
    assert "scenario" in json.loads(out)


def test_apply_transports_each_equivalence_once(capsys, monkeypatch, docs, b_si, canonical_behavior):
    import ctxpoly.freeops as freeops

    solves = []
    original = freeops._min_l2_mixture

    def counting(*args, **kwargs):
        solves.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(freeops, "_min_l2_mixture", counting)
    operation = cp.simplest_permutations()["swap_measurements"]
    code, out, _ = run(capsys, "apply", "--scenario", docs["si"], "--behavior", docs["table1"], "--operation", docs["gamma"])
    assert code == 0
    assert len(solves) == 2  # alpha and beta of the one preparation equivalence
    image_scenario, image = cp.apply_free_operation(operation, b_si, canonical_behavior)
    assert json.loads(out) == {
        "scenario": json.loads(json.dumps(to_doc(image_scenario))),
        "behavior": json.loads(json.dumps(to_doc(image))),
        "transport": {"prep": ["transported"], "meas": []},
    }


def _unit(length, index):
    return [1.0 if k == index else 0.0 for k in range(length)]


@st.composite
def _malformed_documents(draw):
    """A valid scenario document and its uniform behavior, then at most one
    defect: a zero count, an equivalence one entry too long, a cell mask one
    row or column off, a table of the wrong shape or out of range."""
    n_preps, n_meas, n_outcomes = draw(st.integers(2, 3)), draw(st.integers(1, 2)), draw(st.integers(2, 3))
    scenario = {
        "kind": "scenario",
        "preps": n_preps,
        "meas": n_meas,
        "outcomes": n_outcomes,
        "prep_equivs": [{"alpha": _unit(n_preps, 0), "beta": _unit(n_preps, 1)}],
        "meas_equivs": [],
    }
    shape = [n_meas, n_preps, n_outcomes]
    fill = 1.0 / n_outcomes
    defect = draw(st.sampled_from(["none", "count", "equivalence", "mask", "shape", "value"]))
    if defect == "count":
        scenario[draw(st.sampled_from(["preps", "meas", "outcomes"]))] = 0
    elif defect == "equivalence":
        key = draw(st.sampled_from(["prep_equivs", "meas_equivs"]))
        length = (n_preps if key == "prep_equivs" else n_meas * n_outcomes) + 1
        scenario[key] = [{"alpha": _unit(length, 0), "beta": _unit(length, 1)}]
    elif defect == "mask":
        rows, cols = draw(st.sampled_from([(n_meas + 1, n_preps), (n_meas, n_preps + 1)]))
        scenario["cell_mask"] = [[True] * cols for _ in range(rows)]
    elif defect == "shape":
        shape[draw(st.integers(0, 2))] += 1
    elif defect == "value":
        fill = draw(st.sampled_from([-0.5, 2.0, float("nan")]))
    return scenario, {"kind": "behavior", "probs": np.full(shape, fill).tolist()}


@given(documents=_malformed_documents(), command=st.sampled_from(["check", "distance", "validate"]))
def test_malformed_documents_never_raise(tmp_path_factory, documents, command):
    folder = tmp_path_factory.mktemp("docs")
    paths = []
    for name, doc in zip(("scenario", "behavior"), documents):
        paths.append(folder / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    assert run_cli([command, "--scenario", str(paths[0]), "--behavior", str(paths[1])]) in (0, 2, 3)


def test_seed_flag_is_gone(capsys, docs):
    code, _, _ = run(capsys, "check", "--scenario", docs["si"], "--behavior", docs["uniform"], "--seed", "1")
    assert code == 2


@pytest.fixture()
def rounded_doc(tmp_path):
    # Rounded to 6 decimals, the preparation equivalence holds only to 5e-7.
    p = np.array([1 / 7, 2 / 7, 3 / 14, 3 / 14])
    probs = np.round(np.stack([np.stack([1 - p, p], axis=1)] * 2), 6)
    path = tmp_path / "rounded.json"
    path.write_text(json.dumps({"kind": "behavior", "probs": probs.tolist()}))
    return str(path)


def test_tolerance_flag_admits_rounded_documents(capsys, docs, rounded_doc):
    common = ("--scenario", docs["si"], "--behavior", rounded_doc)
    for command in ("check", "distance"):
        code, out, _ = run(capsys, command, *common)
        assert code == 2, command
        assert out == ""
    code, out, _ = run(capsys, "check", *common, "--tolerance", "1e-5")
    assert code == 0
    assert "contextual" in json.loads(out)
    code, out, _ = run(capsys, "distance", *common, "--tolerance", "1e-5")
    assert code == 0
    assert json.loads(out)["d"] < 1e-5


def test_one_parser_serves_every_call(capsys, tmp_path, docs, rounded_doc):
    # The parser is built once per process; flags of one call must not leak
    # into the next.
    target = tmp_path / "check.json"
    code, out, _ = run(
        capsys, "check", "--scenario", docs["si"], "--behavior", rounded_doc,
        "--tolerance", "1e-5", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert "contextual" in json.loads(target.read_text())
    code, out, _ = run(capsys, "distance", "--scenario", docs["si"], "--behavior", docs["table1"])
    assert code == 0
    assert json.loads(out)["d"] > 0
    code, out, _ = run(capsys, "distance", "--scenario", docs["si"], "--behavior", rounded_doc)
    assert code == 2  # distance's own default tolerance, not check's 1e-5
    assert out == ""
    assert build_parser() is build_parser()
    assert build_parser().parse_args(["validate", "--scenario", docs["si"]]).tolerance == DEFAULT_TOLERANCE


@pytest.mark.parametrize(
    "command, library_call, spied",
    [
        ("vertices", ("--scenario", "si"), ("_vertices", "is_noncontextual")),
        ("secondary", ("--scenario", "si", "--behavior", "table1"), ("secondary_procedures",)),
        ("simulate", ("--simulators", "table1", "--target", "table1"), ("find_simulation",)),
        (
            "apply",
            ("--scenario", "si", "--behavior", "table1", "--operation", "gamma"),
            ("_apply",),
        ),
        ("erase", ("--scenario", "si", "--behavior", "table1", "--keep", "0"), ("erase_measurements",)),
        ("compose", ("--scenario", "si", "--scenario2", "si"), ("_check_scenario",)),
        ("power", ("--scenario", "si", "--n", "2"), ("_check_scenario",)),
    ],
)
def test_tolerance_flag_reaches_the_library(capsys, monkeypatch, docs, command, library_call, spied):
    import ctxpoly.cli as cli

    seen = []
    for name in spied:
        original = getattr(cli, name)

        def spy(*args, _original=original, **kwargs):
            seen.append(kwargs.get("tol"))
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    argv = [docs.get(token, token) for token in library_call]
    code, _, _ = run(capsys, command, *argv)
    assert code == 0
    assert set(seen) == {cp.LP_TOL}  # the library's own default, so default output is unchanged
    seen.clear()
    code, _, _ = run(capsys, command, *argv, "--tolerance", "1e-6")
    assert code == 0
    assert seen and set(seen) == {1e-6}


def test_tolerance_flag_removed_where_nothing_uses_it(capsys, docs):
    for argv in (
        ("quantum-demo",),
        ("witness",),
        ("cloning",),
    ):
        assert run(capsys, *argv)[0] == 0, argv[0]
        code, out, err = run(capsys, *argv, "--tolerance", "1e-3")
        assert code == 2, argv[0]
        assert out == "" and "--tolerance" in err


@pytest.mark.parametrize("flag", ["--behavior", "--behavior2"])
def test_compose_refuses_one_behavior(capsys, docs, flag):
    code, out, err = run(capsys, "compose", "--scenario", docs["si"], "--scenario2", docs["si"], flag, docs["table1"])
    assert (code, out) == (2, "")
    assert err == "error: compose needs either both behaviors or neither\n"
