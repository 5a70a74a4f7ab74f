"""The experiment harness: subcommands, report formats, exit codes, and
reproducibility."""

import argparse
import dataclasses
import json
import warnings

import numpy as np
import pytest

from tensorpca import (
    DETECTORS,
    DetectionConfig,
    InvalidParameterError,
    derived_rng,
    load_tensor,
    sample_instance,
    simulate_quantum_amplified,
)
from tensorpca.cli import RunConfig, build_parser, cmd_detect, cmd_recover, main


def run(args):
    return main([str(a) for a in args])


class TestGen:
    def test_writes_loadable_tensor(self, tmp_path):
        out = tmp_path / "t.json"
        assert run(["gen", "--N", "3", "--nbos", "4", "--lambda", "0.5", "--seed", "7",
                    "--out", out]) == 0
        t = load_tensor(out)
        assert t.provenance == "spiked"
        assert t.lam == 0.5

    def test_unspiked_flag_zeroes_strength(self, tmp_path):
        out = tmp_path / "t.json"
        assert run(["gen", "--N", "3", "--nbos", "4", "--lambda", "0.5", "--unspiked",
                    "--out", out]) == 0
        t = load_tensor(out)
        assert t.provenance == "unspiked"
        assert t.lam == 0.0

    def test_binary_deterministic(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for out in (a, b):
            assert run(["gen", "--N", "4", "--nbos", "4", "--lambda", "0.2",
                        "--seed", "11", "--format", "binary", "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_complex_ensemble_writes_a_complex_tensor(self, tmp_path):
        out = tmp_path / "t.json"
        assert run([*_BASE["gen"], "--ensemble", "complex", "--out", out]) == 0
        t = load_tensor(out)
        assert t.ensemble == "complex"
        assert np.iscomplexobj(t.tensor.values)


def _subparsers():
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


# one valid command per subcommand at N <= 4, which each option below varies
_BASE = {
    "gen": ["gen", "--N", "3", "--nbos", "4", "--lambda", "0.5", "--seed", "1"],
    "detect": ["detect", "--N", "3", "--nbos", "4", "--lambda", "0.5", "--trials", "1",
               "--seed", "1"],
    "dos": ["dos", "--N", "3", "--nbos", "4", "--trials", "2", "--seed", "1"],
    "recover": ["recover", "--N", "3", "--nbos", "4", "--lambda", "2.0", "--trials", "1",
                "--seed", "1"],
    "exponents": ["exponents", "--N", "4", "--nbos", "4", "--lambda", "0.2"],
}

# options a subcommand does not offer, because they would change nothing it writes
_REMOVED = [
    ("gen", "--trials", "9"), ("gen", "--dense-limit", "5"), ("gen", "--threads", "2"),
    ("gen", "--zeta", "0.3"),
    ("detect", "--ensemble", "complex"), ("detect", "--threads", "2"),
    ("dos", "--lambda", "0.7"), ("dos", "--zeta", "0.3"), ("dos", "--ensemble", "complex"),
    ("dos", "--threads", "2"),
    ("recover", "--threads", "2"), ("recover", "--ensemble", "complex"),
    ("exponents", "--seed", "3"), ("exponents", "--zeta", "0.2"), ("exponents", "--trials", "5"),
    ("exponents", "--threads", "2"), ("exponents", "--dense-limit", "7"),
]


class TestParser:
    @pytest.mark.parametrize("name", sorted(_subparsers()))
    def test_defaults_come_from_run_config(self, name):
        args = build_parser().parse_args([name])
        assert RunConfig(**vars(args)) == RunConfig(subcommand=name)

    @pytest.mark.parametrize("name", sorted(_subparsers()))
    def test_every_dest_is_a_config_field(self, name):
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        dests = {a.dest for a in _subparsers()[name]._actions
                 if not isinstance(a, argparse._HelpAction)}
        assert dests <= fields

    def test_every_config_field_is_a_dest(self):
        # a field no option sets would still be echoed in every report
        dests = {a.dest for parser in _subparsers().values() for a in parser._actions}
        fields = {f.name for f in dataclasses.fields(RunConfig)} - {"subcommand"}
        assert fields <= dests

    @pytest.mark.parametrize(
        "args",
        [
            ["detect", "--method", "spectral", "--N", "4", "--nbos", "3", "--lambda", "0.7"],
            ["detect", "--method", "projection", "--N", "3", "--nbos", "4", "--lambda", "0.8"],
            ["dos", "--N", "4", "--nbos", "4"],
        ],
    )
    def test_report_echo_has_no_tensor_order_or_operator_dump(self, tmp_path, args):
        # the tensor order is always 4, and no option exports the operator
        out = tmp_path / "r.json"
        assert run(args + ["--out", out]) == 0
        data = json.loads(out.read_text())
        assert not {"p", "dump_operator"} & set(data["config"])
        assert all("p" not in row["params"] for row in data.get("trials", []))

    def test_detection_defaults_come_from_detection_config(self):
        assert RunConfig(subcommand="detect").detection_config() == DetectionConfig()

    @pytest.mark.parametrize("name", ["detect", "recover"])
    def test_method_choices_are_the_detector_table(self, name):
        (action,) = [a for a in _subparsers()[name]._actions if a.dest == "method"]
        assert tuple(action.choices) == tuple(DETECTORS)

    @pytest.mark.parametrize(
        "args",
        [
            ["gen", "--N", "3", "--nbos", "4", "--lambda", "0.3", "--format", "csv"],
            ["detect", "--method", "spectral", "--N", "3", "--nbos", "3", "--lambda", "0.4",
             "--format", "binary"],
            ["dos", "--N", "4", "--nbos", "4", "--format", "binary"],
            ["recover", "--N", "4", "--nbos", "4", "--lambda", "2.5", "--format", "csv"],
            ["exponents", "--N", "6", "--nbos", "4", "--format", "csv"],
            ["detect", "--N", "3", "--nbos", "4", "--lambda", "0.3", "--p", "4"],
            ["detect", "--N", "3", "--nbos", "4", "--lambda", "0.3", "--dump-operator", "x.mtx"],
            *[pytest.param([*_BASE[name], flag, value], id=f"{name}{flag}")
              for name, flag, value in _REMOVED],
        ],
    )
    def test_unwritable_format_is_a_validation_error(self, tmp_path, args):
        # a subcommand offers only the formats it writes; it never falls
        # back to JSON under a name that promises another format.  Options
        # it does not have (the tensor order, an operator export, any option
        # that would not change what it writes) fail alike
        out = tmp_path / "o.out"
        assert run(args + ["--out", out]) == 2
        assert not out.exists()


class TestDetect:
    def test_strong_spike_trial_detected(self, tmp_path):
        out = tmp_path / "d.json"
        assert run(["detect", "--method", "spectral", "--N", "4", "--nbos", "3",
                    "--lambda", "2.0", "--trials", "1", "--seed", "3", "--out", out]) == 0
        data = json.loads(out.read_text())
        spiked_rows = [r for r in data["trials"] if r["lambda"] > 0]
        assert all(r["verdict"] == "spiked" for r in spiked_rows)
        assert data["aggregates"]["tpr"] == 1.0

    def test_spectral_zero_strength_reports_unspiked(self, tmp_path):
        # at lambda = 0 the analytic midpoint cut lies below the noise edge;
        # the spectral detector must not flag pure noise there
        out = tmp_path / "z.json"
        assert run(["detect", "--method", "spectral", "--N", "4", "--nbos", "3",
                    "--lambda", "0", "--trials", "2", "--seed", "31", "--out", out]) == 0
        data = json.loads(out.read_text())
        assert len(data["trials"]) == 4
        assert all(r["verdict"] == "unspiked" for r in data["trials"])
        assert all(r["separation"] is None for r in data["trials"])
        assert data["aggregates"]["fpr"] == 0.0

    def test_projection_method_and_csv(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["detect", "--method", "projection", "--N", "3", "--nbos", "4",
                    "--lambda", "0.8", "--trials", "2", "--seed", "5",
                    "--format", "csv", "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "seed,lambda,verdict,statistic,threshold"
        assert len(lines) == 2 + 4  # 2 trials x (spiked, unspiked)

    def test_multistep_dispatch(self, tmp_path):
        out = tmp_path / "m.json"
        assert run(["detect", "--method", "projection", "--k", "1", "--N", "3",
                    "--nbos", "8", "--lambda", "0.03", "--trials", "1", "--seed", "2",
                    "--out", out]) == 0
        data = json.loads(out.read_text())
        assert any(r["algorithm"] == "multistep-k1" for r in data["trials"] if "error" not in r)

    def test_cascade_trial_computes_q_j_once(self, tmp_path, monkeypatch):
        # both rows of a trial share its seed, so the unspiked row reuses the
        # spiked row's q_j: 2 + 3 projection steps for the first row and 2
        # for the second, against 5 + 5 when each row draws its own
        import tensorpca.cli as cli
        from tensorpca import pipeline

        steps = []
        project_step = pipeline._project_step

        def counted_step(*args, **kwargs):
            steps.append(1)
            return project_step(*args, **kwargs)

        monkeypatch.setattr(pipeline, "_project_step", counted_step)
        args = ["detect", "--method", "projection", "--k", "1", "--N", "3", "--nbos", "8",
                "--lambda", "0.03", "--trials", "1", "--seed", "55"]
        shared = tmp_path / "shared.json"
        assert run([*args, "--out", shared]) == 0
        assert len(steps) == 7
        steps.clear()
        multistep_run = cli.multistep_run

        def fresh_q_j(*args, q_j=None, **kwargs):
            return multistep_run(*args, **kwargs)

        monkeypatch.setattr(cli, "multistep_run", fresh_q_j)
        fresh = tmp_path / "fresh.json"
        assert run([*args, "--out", fresh]) == 0
        assert len(steps) == 10
        assert shared.read_bytes() == fresh.read_bytes()
        rows = json.loads(shared.read_text())["trials"]
        assert [r["lambda"] for r in rows] == [0.03, 0.0]
        assert rows[0]["q_j"] == rows[1]["q_j"]

    def test_quantum_methods_run(self, tmp_path):
        for method in ("q-unamp", "q-amp"):
            out = tmp_path / f"{method}.json"
            assert run(["detect", "--method", method, "--N", "3", "--nbos", "4",
                        "--lambda", "0.9", "--trials", "1", "--seed", "4", "--out", out]) == 0
            data = json.loads(out.read_text())
            assert data["aggregates"]["errors"] == 0

    def test_sweep_errors_recorded_not_fatal(self, tmp_path):
        # nbos=6 breaks the input-state constraint for the projection method;
        # the sweep still completes and reports the failure rows
        out = tmp_path / "err.json"
        assert run(["detect", "--method", "projection", "--N", "3", "--nbos", "6",
                    "--lambda", "0.5", "--trials", "1", "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["aggregates"]["errors"] == 2

    def test_memory_error_becomes_an_error_row(self, tmp_path, monkeypatch):
        import tensorpca.cli as cli

        original = cli._run_one_detection

        def spiked_runs_out_of_memory(config, cfg, params, spiked, trial, shared):
            if spiked:
                raise MemoryError("simulated allocation failure")
            return original(config, cfg, params, spiked, trial, shared)

        monkeypatch.setattr(cli, "_run_one_detection", spiked_runs_out_of_memory)
        out = tmp_path / "oom.json"
        assert run(["detect", "--method", "spectral", "--N", "3", "--nbos", "3",
                    "--lambda", "0.4", "--trials", "2", "--seed", "5", "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["aggregates"]["errors"] == 2
        errors = [r for r in data["trials"] if "error" in r]
        assert [r["error"] for r in errors] == ["MemoryError", "MemoryError"]
        assert sum("error" not in r for r in data["trials"]) == 2

    def test_validation_exit_code(self):
        assert run(["detect", "--N", "0", "--nbos", "4", "--lambda", "0.5"]) == 2

    @pytest.mark.parametrize("method", ["projection", "spectral"])
    def test_invalid_detection_option_fails_before_the_sweep(self, tmp_path, method):
        # one invalid option is one validation error, as under recover, not
        # an error row per draw
        out = tmp_path / "d.json"
        assert run(["detect", "--method", method, "--N", "3", "--nbos", "4",
                    "--lambda", "0.5", "--cprime", "1.5", "--out", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--trials", "-3"),
                                             ("--tol", "0"), ("--tol", "1")])
    def test_invalid_trials_or_tol_fails_before_the_sweep(self, tmp_path, flag, value):
        # one validation error, not a report of no trials or an error row per draw
        out = tmp_path / "d.json"
        assert run(["detect", "--N", "3", "--nbos", "4", "--lambda", "0.5", flag, value,
                    "--out", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("method, k", [("q-amp", 1), ("q-unamp", 1), ("spectral", 2),
                                           ("projection", -1)])
    def test_cascade_depth_outside_projection_fails_before_any_trial(self, tmp_path, method, k):
        # --k selects the cascade, which only the projection method runs
        out = tmp_path / "d.json"
        assert run(["detect", "--method", method, "--k", k, "--N", "3", "--nbos", "8",
                    "--lambda", "0.5", "--trials", "1", "--out", out]) == 2
        assert not out.exists()

    def test_unknown_method_fails_before_any_trial(self, tmp_path):
        # the parser cannot pass an unknown method; a config built in code can
        out = tmp_path / "d.json"
        config = RunConfig(subcommand="detect", method="bogus", N_list=[3], nbos_list=[4],
                           lambda_list=[0.5], out=str(out))
        with pytest.raises(InvalidParameterError, match="bogus"):
            cmd_detect(config)
        assert not out.exists()

    def test_capacity_exit_code(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["dos", "--N", "6", "--nbos", "6", "--trials", "1",
                    "--dense-limit", "50", "--out", out]) == 3


class TestDos:
    def test_monotone_columns_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["dos", "--N", "4", "--nbos", "4", "--trials", "5",
                        "--seed", "21", "--xgrid", "0.0,0.3,0.6,2.0",
                        "--format", "csv", "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = [line.split(",") for line in a.read_text().splitlines()[2:]]
        fractions = [float(r[1]) for r in rows]
        assert all(x >= y - 1e-15 for x, y in zip(fractions, fractions[1:]))

    def test_json_table(self, tmp_path):
        out = tmp_path / "dos.json"
        assert run(["dos", "--N", "4", "--nbos", "4", "--trials", "3", "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["tables"][0]["p_greater"][0] > 0


class TestRecover:
    def test_noiseless_chain_recovers_exactly(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["recover", "--N", "4", "--nbos", "4", "--lambda", "3.0",
                    "--trials", "1", "--seed", "6", "--out", out]) == 0
        data = json.loads(out.read_text())
        row = data["trials"][0]
        assert row["detected"]
        assert abs(row["corr_boosted"]) >= 0.99

    def test_aggregates_score_unsigned_correlations(self, tmp_path):
        # the two trials recover the spike with opposite signs (-0.996 and
        # +0.998); averaging signed correlations reported 0.001
        out = tmp_path / "r.json"
        assert run(["recover", "--N", "8", "--nbos", "4", "--lambda", "0.3",
                    "--trials", "2", "--seed", "3", "--out", out]) == 0
        data = json.loads(out.read_text())
        corrs = [row["corr_boosted"] for row in data["trials"]]
        assert min(corrs) < -0.9 and max(corrs) > 0.9
        aggregates = data["aggregates"]
        assert aggregates["mean_corr_boosted"] == pytest.approx(np.mean(np.abs(corrs)), rel=1e-15)
        assert aggregates["boosted_win_rate"] == 1.0

    def test_unspiked_chain_skips_recovery(self, tmp_path):
        out = tmp_path / "u.json"
        assert run(["recover", "--N", "4", "--nbos", "4", "--lambda", "1.0",
                    "--unspiked", "--trials", "2", "--seed", "8", "--out", out]) == 0
        data = json.loads(out.read_text())
        for row in data["trials"]:
            assert row.get("status") == "detection_failed"
            assert "corr_boosted" not in row

    def test_zero_strength_never_detects(self, tmp_path):
        # lambda = 0, the CLI default, gives a zero success threshold: as in
        # detect, pure noise must not be reported as detected and boosted
        out = tmp_path / "z.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["recover", "--N", "4", "--nbos", "4", "--lambda", "0",
                        "--trials", "2", "--seed", "3", "--out", out]) == 0
        data = json.loads(out.read_text())
        assert [r.get("status") for r in data["trials"]] == ["detection_failed"] * 2
        assert data["aggregates"]["detected"] == 0

    def test_spectral_zero_strength_never_detects(self, tmp_path):
        out = tmp_path / "z.json"
        assert run(["recover", "--method", "spectral", "--N", "4", "--nbos", "3",
                    "--lambda", "0", "--trials", "2", "--seed", "31", "--out", out]) == 0
        data = json.loads(out.read_text())
        assert [r.get("status") for r in data["trials"]] == ["detection_failed"] * 2
        assert data["aggregates"]["detected"] == 0

    def test_snapshot_input_route(self, tmp_path):
        import numpy as np

        from tensorpca import ModelParams, build_basis, embed_power_state, sample_instance
        from tensorpca.fock import save_state
        from tensorpca.instance import save_tensor

        params = ModelParams(N=3, n_bos=4, lambda_bar=2.0, seed=12)
        tensor, v = sample_instance(params, spiked=True)
        state, _ = embed_power_state(build_basis(3, 4), tensor.tensor)
        save_state(tmp_path / "state.json", state)
        save_tensor(tmp_path / "tensor.json", tensor)
        out = tmp_path / "r.json"
        assert run(["recover", "--state", tmp_path / "state.json",
                    "--tensor", tmp_path / "tensor.json", "--seed", "12",
                    "--out", out]) == 0
        data = json.loads(out.read_text())
        row = data["trials"][0]
        assert row["source"] == "snapshot"
        assert data["aggregates"]["mean_corr_boosted"] is None
        assert data["aggregates"]["boosted_win_rate"] is None
        boosted = np.asarray(row["boosted"])
        assert abs(boosted @ v / (np.linalg.norm(boosted) * np.linalg.norm(v))) > 0.9

    def test_truncated_snapshot_is_a_validation_error(self, tmp_path):
        from tensorpca import ModelParams, build_basis, embed_power_state, sample_instance
        from tensorpca.fock import save_state
        from tensorpca.instance import save_tensor

        tensor, _ = sample_instance(ModelParams(N=3, n_bos=4, lambda_bar=2.0, seed=12), spiked=True)
        state, _ = embed_power_state(build_basis(3, 4), tensor.tensor)
        save_state(tmp_path / "s.bin", state, fmt="binary")
        save_tensor(tmp_path / "t.bin", tensor, fmt="binary")
        (tmp_path / "s.bin").write_bytes((tmp_path / "s.bin").read_bytes()[:-3])
        assert run(["recover", "--state", tmp_path / "s.bin", "--tensor", tmp_path / "t.bin",
                    "--out", tmp_path / "r.json"]) == 2

    def test_tplus_boost_without_a_pair_fails_before_any_trial(self, tmp_path):
        # the spectral detector and a snapshot carry no decorrelated pair
        from tensorpca import ModelParams, build_basis, embed_power_state
        from tensorpca.fock import save_state
        from tensorpca.instance import save_tensor

        tensor, _ = sample_instance(ModelParams(N=3, n_bos=4, lambda_bar=2.0, seed=12), spiked=True)
        state, _ = embed_power_state(build_basis(3, 4), tensor.tensor)
        save_state(tmp_path / "s.json", state)
        save_tensor(tmp_path / "t.json", tensor)
        out = tmp_path / "r.json"
        assert run(["recover", "--method", "spectral", "--boost-with", "tplus", "--N", "4",
                    "--nbos", "4", "--lambda", "2.0", "--trials", "1", "--out", out]) == 2
        assert run(["recover", "--state", tmp_path / "s.json", "--tensor", tmp_path / "t.json",
                    "--boost-with", "tplus", "--out", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "option",
        [["--N", "5"], ["--nbos", "8"], ["--lambda", "0.1"], ["--zeta", "0.3"],
         ["--trials", "3"], ["--dense-limit", "10"], ["--method", "spectral"],
         ["--cprime", "0.5"], ["--slack", "2"], ["--unspiked"], ["--boost-with", "tplus"]],
        ids=lambda option: option[0],
    )
    def test_snapshot_refuses_sampled_route_options(self, tmp_path, option):
        # a snapshot run reads none of these, so setting one is a validation error
        from tensorpca import ModelParams, build_basis, embed_power_state
        from tensorpca.fock import save_state
        from tensorpca.instance import save_tensor

        tensor, _ = sample_instance(ModelParams(N=3, n_bos=4, lambda_bar=2.0, seed=12), spiked=True)
        state, _ = embed_power_state(build_basis(3, 4), tensor.tensor)
        save_state(tmp_path / "s.json", state)
        save_tensor(tmp_path / "t.json", tensor)
        snapshot = ["recover", "--state", tmp_path / "s.json", "--tensor", tmp_path / "t.json",
                    "--seed", "12", "--mode", "randomized"]
        assert run([*snapshot, "--out", tmp_path / "ok.json"]) == 0
        out = tmp_path / "r.json"
        assert run([*snapshot, *option, "--out", out]) == 2
        assert not out.exists()

    def test_snapshot_without_tensor_is_a_validation_error(self, tmp_path):
        assert run(["recover", "--state", tmp_path / "missing.json", "--out",
                    tmp_path / "r.json"]) == 2

    def test_tensor_without_snapshot_is_a_validation_error(self, tmp_path):
        # the tensor file feeds only the snapshot route; a sweep would ignore it
        from tensorpca import ModelParams
        from tensorpca.instance import save_tensor

        tensor, _ = sample_instance(ModelParams(N=3, n_bos=4, lambda_bar=2.0, seed=12), spiked=True)
        save_tensor(tmp_path / "t.json", tensor)
        out = tmp_path / "r.json"
        assert run([*_BASE["recover"], "--tensor", tmp_path / "t.json", "--out", out]) == 2
        assert not out.exists()

    def test_memory_error_becomes_an_error_row(self, tmp_path, monkeypatch):
        import tensorpca.pipeline as pipeline

        original = pipeline.projection_statistic
        calls = []

        def first_trial_runs_out_of_memory(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise MemoryError("simulated allocation failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "projection_statistic", first_trial_runs_out_of_memory)
        out = tmp_path / "oom.json"
        assert run(["recover", "--N", "4", "--nbos", "4", "--lambda", "3.0",
                    "--trials", "2", "--seed", "6", "--out", out]) == 0
        rows = json.loads(out.read_text())["trials"]
        assert rows[0]["error"] == "MemoryError"
        assert rows[1]["detected"]

    def test_unknown_method_fails_before_any_trial(self, tmp_path):
        out = tmp_path / "r.json"
        config = RunConfig(subcommand="recover", method="bogus", N_list=[4], nbos_list=[4],
                           lambda_list=[2.5], out=str(out))
        with pytest.raises(InvalidParameterError, match="bogus"):
            cmd_recover(config)
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_fail_before_any_trial(self, tmp_path, trials):
        # one validation error, not a report of no trials
        out = tmp_path / "r.json"
        assert run(["recover", "--N", "3", "--nbos", "4", "--lambda", "2.0",
                    "--trials", trials, "--out", out]) == 2
        assert not out.exists()

    def test_detected_exactly_where_detect_says_spiked(self, tmp_path):
        # both commands draw trial t's spiked instance from
        # derived_rng(seed, "instance", t) and run the same detector
        grid = ["--method", "projection", "--N", "3", "--nbos", "4", "--lambda", "0.4",
                "--slack", "1", "--trials", "6", "--seed", "40"]
        det, rec = tmp_path / "d.json", tmp_path / "r.json"
        assert run(["detect", *grid, "--out", det]) == 0
        assert run(["recover", *grid, "--out", rec]) == 0
        spiked = [r["verdict"] == "spiked" for r in json.loads(det.read_text())["trials"]
                  if r["lambda"] > 0]
        detected = [r["detected"] for r in json.loads(rec.read_text())["trials"]]
        assert detected == spiked
        assert any(spiked) and not all(spiked)

    def test_quantum_method_runs_its_own_detector(self, tmp_path):
        out = tmp_path / "q.json"
        assert run(["recover", "--method", "q-amp", "--N", "3", "--nbos", "4",
                    "--lambda", "0.4", "--trials", "4", "--seed", "40", "--out", out]) == 0
        config = RunConfig(subcommand="recover", N_list=[3], nbos_list=[4], lambda_list=[0.4],
                           seed=40)
        params = config.model_params(3, 4, 0.4)
        expected = []
        for trial in range(4):
            tensor, _ = sample_instance(params, spiked=True,
                                        rng=derived_rng(40, "instance", trial))
            rep = simulate_quantum_amplified(tensor, params, config.detection_config(),
                                             seed=40 * 1_000_003 + trial)
            expected.append(rep.spiked)
        rows = json.loads(out.read_text())["trials"]
        assert [r["detected"] for r in rows] == expected
        assert any(expected) and not all(expected)  # the projection verdicts are all spiked

    def test_spectral_route(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["recover", "--method", "spectral", "--N", "4", "--nbos", "3",
                    "--lambda", "2.0", "--trials", "1", "--seed", "9", "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["trials"][0]["detected"]


class TestExponents:
    def test_table_and_ratios(self, tmp_path):
        out = tmp_path / "e.json"
        assert run(["exponents", "--N", "6", "--nbos", "4", "--lambda", "0.05",
                    "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["ratios"]["accelerated_classical"] == "1/2"
        assert data["ratios"]["quantum_amplified"] == "1/8"
        assert data["ratios"]["quantum_multistep"] == "1/12"
        exps = data["exponents"]
        assert exps["original_classical"] > exps["accelerated_classical"] > exps[
            "quantum_amplified"] > exps["quantum_multistep"]

    def test_harvests_query_counts(self, tmp_path):
        det = tmp_path / "det.json"
        assert run(["detect", "--method", "projection", "--N", "3", "--nbos", "4",
                    "--lambda", "0.8", "--trials", "1", "--seed", "10", "--out", det]) == 0
        out = tmp_path / "e.json"
        assert run(["exponents", "--N", "3", "--nbos", "4", "--lambda", "0.8",
                    "--logs", det, "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["measured"]["projection"]["matvec"] >= 1

    def test_complex_ensemble_moves_the_crossing(self, tmp_path):
        real, cplx = tmp_path / "r.json", tmp_path / "c.json"
        assert run([*_BASE["exponents"], "--out", real]) == 0
        assert run([*_BASE["exponents"], "--ensemble", "complex", "--out", cplx]) == 0
        nbos_eq = [json.loads(p.read_text())["nbos_eq"] for p in (real, cplx)]
        assert None not in nbos_eq
        assert nbos_eq[0] != nbos_eq[1]

    @pytest.mark.parametrize("name", ["recover", "dos", "exponents"])
    def test_logs_other_than_detect_reports_are_refused(self, tmp_path, name):
        # only detect rows carry query counts; other reports would read as none
        log = tmp_path / "log.json"
        assert run([*_BASE[name], "--out", log]) == 0
        out = tmp_path / "e.json"
        assert run([*_BASE["exponents"], "--logs", log, "--out", out]) == 2
        assert not out.exists()


@pytest.fixture
def no_trial(monkeypatch):
    """Fail the test if any trial, detection sweep or density-of-states
    draw starts."""
    import tensorpca.cli as cli

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    for name in ("sample_instance", "density_of_states", "recovery_chain"):
        monkeypatch.setattr(cli, name, no_trial)


class TestFileErrors:
    """An unreadable input or output path is a validation error: exit 2, a
    message, no file, and no trial run."""

    def _refused(self, capsys, args, out):
        assert run([*args, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("validation error: ")
        assert not out.exists()

    def test_missing_log(self, tmp_path, capsys, no_trial):
        self._refused(capsys, [*_BASE["exponents"], "--logs", tmp_path / "missing.json"],
                      tmp_path / "e.json")

    def test_log_that_is_not_json(self, tmp_path, capsys, no_trial):
        (tmp_path / "bad.json").write_text("not json {")
        self._refused(capsys, [*_BASE["exponents"], "--logs", tmp_path / "bad.json"],
                      tmp_path / "e.json")

    def test_missing_snapshot_and_tensor(self, tmp_path, capsys, no_trial):
        self._refused(capsys, ["recover", "--state", tmp_path / "missing.json",
                               "--tensor", tmp_path / "missing2.json"], tmp_path / "r.json")

    def test_out_in_a_missing_directory(self, tmp_path, capsys, no_trial):
        self._refused(capsys, _BASE["detect"], tmp_path / "nonexistent" / "dir" / "r.json")


class TestPayload:
    @pytest.mark.parametrize(
        "args",
        [
            *[[*_BASE["detect"], "--method", method] for method in DETECTORS],
            [*_BASE["detect"], "--nbos", "8", "--k", "1"],
            _BASE["dos"],
            [*_BASE["dos"], "--format", "csv"],
            _BASE["recover"],
            [*_BASE["recover"], "--boost-with", "tplus", "--mode", "randomized"],
            ["recover", "--state", "{state}", "--tensor", "{tensor}"],
            [*_BASE["exponents"], "--logs", "{logs}"],
            _BASE["gen"],
        ],
        ids=lambda args: "-".join(str(a).strip("-{}") for a in args[:1] + args[-2:]),
    )
    def test_every_payload_is_plain_json(self, tmp_path, args):
        # reports hold only json-native values: no encoder hook is needed
        from tensorpca import ModelParams, build_basis, embed_power_state
        from tensorpca.cli import _SUBCOMMANDS
        from tensorpca.fock import save_state
        from tensorpca.instance import save_tensor

        tensor, _ = sample_instance(ModelParams(N=3, n_bos=4, lambda_bar=2.0, seed=12),
                                    spiked=True)
        files = {name: str(tmp_path / f"{name}.json") for name in ("state", "tensor", "logs")}
        save_state(files["state"], embed_power_state(build_basis(3, 4), tensor.tensor)[0])
        save_tensor(files["tensor"], tensor)
        assert run([*_BASE["detect"], "--out", files["logs"]]) == 0
        argv = [a.format(**files) for a in args] + ["--out", str(tmp_path / "o.out")]
        config = RunConfig(**vars(build_parser().parse_args(argv)))
        payload = _SUBCOMMANDS[config.subcommand][0](config)
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        if config.subcommand != "gen" and config.fmt == "json":
            assert (tmp_path / "o.out").read_text() == text

    def test_unencodable_report_leaves_no_file(self, tmp_path):
        from tensorpca.cli import _emit

        for fmt in ("json", "csv"):
            out = tmp_path / f"r.{fmt}"
            config = RunConfig(subcommand="dos", fmt=fmt, out=str(out))
            config.x_grid = np.arange(3)  # an array is not a json value
            with pytest.raises(TypeError):
                _emit(config, ["x"], [[0.0]], tables=[])
            assert not out.exists()


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["detect", "--method", "spectral", "--N", "4", "--nbos", "3",
             "--lambda", "0.7", "--trials", "2", "--seed", "31"],
            ["detect", "--method", "q-amp", "--N", "3", "--nbos", "4",
             "--lambda", "0.6", "--trials", "2", "--seed", "32"],
            ["recover", "--N", "4", "--nbos", "4", "--lambda", "2.5",
             "--trials", "1", "--seed", "33"],
            ["exponents", "--N", "6", "--nbos", "4", "--lambda", "0.05"],
        ],
    )
    def test_reports_byte_identical(self, tmp_path, args):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()


# (subcommand, option) -> (context, option args): the option must change the
# written output of base + context, or its exit code.  Each context puts the
# option where it acts; {state}, {tensor} and {logs} name files the fixture
# writes
_ACTS = {
    ("gen", "--N"): ([], ["--N", "4"]),
    ("gen", "--lambda"): ([], ["--lambda", "0.9"]),
    ("gen", "--seed"): ([], ["--seed", "2"]),
    ("gen", "--format"): ([], ["--format", "binary"]),
    ("gen", "--ensemble"): ([], ["--ensemble", "complex"]),
    ("gen", "--unspiked"): ([], ["--unspiked"]),
    ("detect", "--N"): ([], ["--N", "4"]),
    ("detect", "--nbos"): ([], ["--nbos", "8"]),
    ("detect", "--lambda"): ([], ["--lambda", "0.9"]),
    ("detect", "--zeta"): ([], ["--zeta", "0.3"]),
    ("detect", "--seed"): ([], ["--seed", "2"]),
    ("detect", "--trials"): ([], ["--trials", "2"]),
    ("detect", "--format"): ([], ["--format", "csv"]),
    # steps of at most 128 states project with their own eigensystem, so
    # the dense limit, and tol with it, act only above: at N=7 (D=210)
    ("detect", "--dense-limit"): (["--N", "7"], ["--dense-limit", "0"]),
    ("detect", "--method"): ([], ["--method", "spectral"]),
    ("detect", "--cprime"): ([], ["--cprime", "0.5"]),
    ("detect", "--slack"): ([], ["--slack", "1"]),
    # the retry budget exists only in the unamplified simulator, and tol
    # only on the Ritz path
    ("detect", "--cdoubleprime"): (["--method", "q-unamp"], ["--cdoubleprime", "2"]),
    ("detect", "--tol"): (["--N", "7", "--dense-limit", "0"], ["--tol", "1e-3"]),
    ("detect", "--k"): (["--nbos", "8"], ["--k", "1"]),
    ("dos", "--N"): ([], ["--N", "4"]),
    ("dos", "--nbos"): ([], ["--nbos", "8"]),
    ("dos", "--seed"): ([], ["--seed", "2"]),
    ("dos", "--trials"): ([], ["--trials", "3"]),
    ("dos", "--format"): ([], ["--format", "csv"]),
    ("dos", "--dense-limit"): ([], ["--dense-limit", "10"]),
    ("dos", "--xgrid"): ([], ["--xgrid", "0.5"]),
    ("recover", "--N"): ([], ["--N", "4"]),
    ("recover", "--nbos"): ([], ["--nbos", "8"]),
    ("recover", "--lambda"): ([], ["--lambda", "2.5"]),
    ("recover", "--zeta"): ([], ["--zeta", "0.3"]),
    ("recover", "--seed"): ([], ["--seed", "2"]),
    ("recover", "--trials"): ([], ["--trials", "2"]),
    ("recover", "--dense-limit"): (["--N", "7"], ["--dense-limit", "0"]),
    ("recover", "--method"): ([], ["--method", "spectral"]),
    ("recover", "--cprime"): ([], ["--cprime", "0.5"]),
    # draws near the threshold, some of whose verdicts the slack flips
    ("recover", "--slack"): (["--lambda", "0.4", "--trials", "6", "--seed", "40"],
                             ["--slack", "1"]),
    ("recover", "--mode"): ([], ["--mode", "randomized"]),
    ("recover", "--unspiked"): ([], ["--unspiked"]),
    ("recover", "--boost-with"): ([], ["--boost-with", "tplus"]),
    ("recover", "--state"): (["--tensor", "{tensor}"], ["--state", "{state}"]),
    ("recover", "--tensor"): (["--state", "{state}"], ["--tensor", "{tensor}"]),
    ("exponents", "--N"): ([], ["--N", "6"]),
    ("exponents", "--lambda"): ([], ["--lambda", "0.1"]),
    ("exponents", "--ensemble"): ([], ["--ensemble", "complex"]),
    ("exponents", "--logs"): ([], ["--logs", "{logs}"]),
}

# options whose runs start from another command than _BASE: a --state run
# refuses the sampled route's options that _BASE["recover"] sets
_START = {("recover", flag): ["recover", "--seed", "1"] for flag in ("--state", "--tensor")}

# offered options that change no output, each with the reason it stays
_EXEMPT = {
    **{(name, "--out"): "names the report file, which the config echo leaves out"
       for name in _BASE},
    **{(name, "--nbos"): "no output depends on n_bos, but test_12_determinism passes it"
       for name in ("gen", "exponents")},
    **{(name, "--format"): "json is the one format it writes, which --format json names"
       for name in ("recover", "exponents")},
}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Run a command once and return its exit code and what it wrote, less
    the echoes of its settings.  Runs are shared between the options they
    serve."""
    from tensorpca import ModelParams, build_basis, embed_power_state
    from tensorpca.fock import save_state
    from tensorpca.instance import save_tensor

    root = tmp_path_factory.mktemp("acts")
    tensor, _ = sample_instance(ModelParams(N=3, n_bos=4, lambda_bar=2.0, seed=12), spiked=True)
    state, _ = embed_power_state(build_basis(3, 4), tensor.tensor)
    files = {"state": root / "s.json", "tensor": root / "t.json", "logs": root / "d.json"}
    save_state(files["state"], state)
    save_tensor(files["tensor"], tensor)
    assert run([*_BASE["detect"], "--out", files["logs"]]) == 0
    cache = {}

    def written(args):
        args = tuple(a.format(**files) for a in args)
        if args not in cache:
            out = root / f"{len(cache)}.out"
            code = run([*args, "--out", out])
            content = out.read_bytes() if out.exists() else None
            if content is not None and args[0] != "gen":
                text = content.decode()
                if text.startswith("# config:"):
                    content = text.split("\n", 1)[1]
                else:
                    content = json.loads(text)
                    content.pop("config")
                    for row in content.get("trials", []):
                        row.pop("config", None)  # the detection rows' own echoes
                        row.pop("params", None)
            cache[args] = (code, content)
        return cache[args]

    return written


class TestEveryOptionActs:
    def test_every_offered_option_is_covered(self):
        offered = {(name, action.option_strings[0]) for name, parser in _subparsers().items()
                   for action in parser._actions if not isinstance(action, argparse._HelpAction)}
        assert not set(_ACTS) & set(_EXEMPT)
        assert set(_ACTS) | set(_EXEMPT) == offered
        assert len(offered) == 55

    @pytest.mark.parametrize("name, flag", sorted(_ACTS), ids=lambda v: v)
    def test_option_changes_the_output(self, written, name, flag):
        context, option = _ACTS[name, flag]
        start = _START.get((name, flag), _BASE[name])
        base = written([*start, *context])
        assert base != written([*start, *context, *option])


@pytest.mark.parametrize(
    "name, flag",
    [("detect", "--N"), ("detect", "--nbos"), ("detect", "--lambda"),
     ("dos", "--N"), ("dos", "--nbos"), ("dos", "--xgrid")],
)
def test_empty_list_is_a_usage_error(tmp_path, name, flag):
    # a list with no value would sweep nothing and still write a report
    out = tmp_path / "o.out"
    assert run([*_BASE[name], flag, ",", "--out", out]) == 2
    assert not out.exists()


class TestOneModelPoint:
    @pytest.mark.parametrize("name", ["gen", "recover", "exponents"])
    @pytest.mark.parametrize("flag, values", [("--N", "3,4"), ("--nbos", "4,8"),
                                              ("--lambda", "0.5,0.9")])
    def test_a_list_fails_before_any_trial(self, tmp_path, monkeypatch, name, flag, values):
        # these subcommands run one model point, so a list is refused before any draw
        import tensorpca.cli as cli

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "sample_instance", no_trial)
        out = tmp_path / "o.out"
        assert run([*_BASE[name], flag, values, "--out", out]) == 2
        assert not out.exists()
