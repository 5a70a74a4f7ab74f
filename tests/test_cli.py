"""The experiment harness: subcommands, report formats, exit codes, and
reproducibility."""

import json

import numpy as np
import pytest

from tensorpca import load_tensor
from tensorpca.cli import main


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


class TestDetect:
    def test_strong_spike_trial_detected(self, tmp_path):
        out = tmp_path / "d.json"
        assert run(["detect", "--method", "spectral", "--N", "4", "--nbos", "3",
                    "--lambda", "2.0", "--trials", "1", "--seed", "3", "--out", out]) == 0
        data = json.loads(out.read_text())
        spiked_rows = [r for r in data["trials"] if r["lambda"] > 0]
        assert all(r["verdict"] == "spiked" for r in spiked_rows)
        assert data["aggregates"]["tpr"] == 1.0

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

    def test_operator_dump_is_loadable(self, tmp_path):
        from scipy.io import mmread

        out = tmp_path / "d.json"
        dump = tmp_path / "op.mtx"
        assert run(["detect", "--method", "spectral", "--N", "3", "--nbos", "3",
                    "--lambda", "0.4", "--trials", "1", "--seed", "13",
                    "--dump-operator", dump, "--out", out]) == 0
        mat = mmread(dump).toarray()
        assert mat.shape == (10, 10)
        assert np.abs(mat - mat.T).max() < 1e-12

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

        def spiked_runs_out_of_memory(config, params, spiked, trial):
            if spiked:
                raise MemoryError("simulated allocation failure")
            return original(config, params, spiked, trial)

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

    def test_unspiked_chain_skips_recovery(self, tmp_path):
        out = tmp_path / "u.json"
        assert run(["recover", "--N", "4", "--nbos", "4", "--lambda", "1.0",
                    "--unspiked", "--trials", "2", "--seed", "8", "--out", out]) == 0
        data = json.loads(out.read_text())
        for row in data["trials"]:
            assert row.get("status") == "detection_failed"
            assert "corr_boosted" not in row

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
        boosted = np.asarray(row["boosted"])
        assert abs(boosted @ v / (np.linalg.norm(boosted) * np.linalg.norm(v))) > 0.9

    def test_snapshot_without_tensor_is_a_validation_error(self, tmp_path):
        assert run(["recover", "--state", tmp_path / "missing.json", "--out",
                    tmp_path / "r.json"]) == 2

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

    def test_threads_do_not_change_results(self, tmp_path):
        base = ["detect", "--method", "spectral", "--N", "4", "--nbos", "3",
                "--lambda", "0.7", "--trials", "4", "--seed", "34"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(base + ["--threads", "1", "--out", a]) == 0
        assert run(base + ["--threads", "2", "--out", b]) == 0
        ja = json.loads(a.read_text())
        jb = json.loads(b.read_text())
        assert ja["trials"] == jb["trials"]
