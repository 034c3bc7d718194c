import csv
import io
import json
import math
import re
import struct
import warnings

import numpy as np
import pytest

import selfspec.cli
import selfspec.engine
import selfspec.simulator
from selfspec import gen_passthrough_model, passthrough_adapter
from selfspec.cli import main
from selfspec.adapter import AdapterWeights
from selfspec.kernels import AttentionParams
from selfspec.serialize import read_corpus, save_adapter, save_weights


# The fixture model's shape and seed; its exit layer is given apart.
MODEL_FLAGS = ["--seed", "1", "--vocab", "64", "--d-model", "32", "--heads", "4",
               "--layers", "4", "--ffn-hidden", "48", "--max-seq-len", "128"]


@pytest.fixture()
def artifacts(tmp_path):
    """Small model + corpus + trained-ish adapter written through the CLI."""
    model = tmp_path / "model.kngr"
    corpus = tmp_path / "corpus.txt"
    adapter = tmp_path / "adapter.knga"
    assert main(["gen-model", "--out", str(model), *MODEL_FLAGS, "--exit-layer", "2"]) == 0
    assert main([
        "gen-corpus", "--out", str(corpus), "--seed", "2",
        "--vocab", "64", "--n-seqs", "6", "--len-min", "4", "--len-max", "8",
    ]) == 0
    assert main([
        "train", "--model", str(model), "--corpus", str(corpus),
        "--out", str(adapter), "--epochs", "2", "--batch", "3", "--seed", "3",
    ]) == 0
    return model, adapter, corpus


@pytest.fixture()
def split_at_1(tmp_path, artifacts):
    """The fixture model generated at exit layer 1, with the fixture adapter and corpus.

    Split there, a draft is cheap enough next to a greedy step that
    sessions draft on after a rejected round, and defer.
    """
    _, adapter, corpus = artifacts
    model = tmp_path / "exit1.kngr"
    assert main(["gen-model", "--out", str(model), *MODEL_FLAGS, "--exit-layer", "1"]) == 0
    return model, adapter, corpus


# The report every command gives for an output that differs from greedy.
DIVERGENCE = re.compile(
    r"losslessness violation at eta=\S+ gamma=\d+ on prompt \d+: "
    r"first divergence at position \d+ \(round \d+\)"
)


@pytest.fixture()
def faulty_verifier(monkeypatch):
    """Off-by-one acceptance: the first mismatched draft is accepted too."""
    accepted_prefix = selfspec.engine._accepted_prefix

    def off_by_one(drafts, targets):
        accepted = accepted_prefix(drafts, targets)
        return accepted + 1 if accepted < len(drafts) else accepted

    monkeypatch.setattr(selfspec.engine, "_accepted_prefix", off_by_one)


@pytest.fixture()
def nan_confidence_runs(monkeypatch):
    """Every draft confidence is NaN; returns each ``run_corpus`` call's result.

    A NaN confidence stops each drafting round at its first draft.
    """
    probe = selfspec.engine.draft_logits
    run_corpus = selfspec.simulator.run_corpus
    runs = []

    def nan_confidence(*args):
        logits, _, token = probe(*args)
        return logits, float("nan"), token

    def recorded(*args):
        runs.append(run_corpus(*args))
        return runs[-1]

    monkeypatch.setattr(selfspec.engine, "draft_logits", nan_confidence)
    monkeypatch.setattr(selfspec.simulator, "run_corpus", recorded)
    return runs


class TestGenerators:
    def test_gen_model_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.kngr", tmp_path / "b.kngr"
        args = ["gen-model", "--seed", "7", "--vocab", "32", "--d-model", "16",
                "--heads", "2", "--layers", "2", "--ffn-hidden", "20",
                "--exit-layer", "1", "--max-seq-len", "32"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_corpus_deterministic_and_parseable(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["gen-corpus", "--seed", "9", "--vocab", "40", "--n-seqs", "5",
                "--len-min", "4", "--len-max", "4"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        sequences = read_corpus(a)
        assert len(sequences) == 5
        assert all(len(seq) == 4 for seq in sequences)
        assert all(0 <= t < 40 for seq in sequences for t in seq)

    def test_bad_config_is_usage_error(self, tmp_path):
        code = main(["gen-model", "--out", str(tmp_path / "x.kngr"),
                     "--d-model", "30", "--heads", "4"])
        assert code == 2

    def test_zero_heads_is_usage_error(self, tmp_path):
        code = main(["gen-model", "--out", str(tmp_path / "x.kngr"), "--heads", "0"])
        assert code == 2

    def test_zero_width_model_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.kngr"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["gen-model", "--out", str(out), "--d-model", "0"])
        assert code == 2
        assert "head_dim >= 2" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_writes_loss_curve_with_epoch_rows(self, tmp_path, artifacts):
        model, _, corpus = artifacts
        out = tmp_path / "a2.knga"
        curve = tmp_path / "curve.csv"
        assert main([
            "train", "--model", str(model), "--corpus", str(corpus),
            "--out", str(out), "--loss-out", str(curve),
            "--epochs", "3", "--batch", "2", "--seed", "4",
        ]) == 0
        lines = curve.read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 1 + 3

    def test_rerun_identical_adapter_bytes(self, tmp_path, artifacts):
        model, _, corpus = artifacts
        a, b = tmp_path / "r1.knga", tmp_path / "r2.knga"
        args = ["train", "--model", str(model), "--corpus", str(corpus),
                "--epochs", "2", "--batch", "2", "--seed", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_corpus_exit_2_names_path(self, tmp_path, artifacts, capsys):
        model, _, _ = artifacts
        missing = tmp_path / "nope.txt"
        code = main(["train", "--model", str(model), "--corpus", str(missing),
                     "--out", str(tmp_path / "x.knga")])
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err


    def test_non_ascii_corpus_exit_2_names_line(self, tmp_path, artifacts, capsys):
        model, _, _ = artifacts
        corpus = tmp_path / "latin.txt"
        corpus.write_bytes(b"1 2 3\n4 \xc3\xa9 5\n")
        code = main(["train", "--model", str(model), "--corpus", str(corpus),
                     "--out", str(tmp_path / "x.knga")])
        assert code == 2
        assert "latin.txt:2" in capsys.readouterr().err

    def test_oversized_model_header_exit_2(self, tmp_path, artifacts, capsys):
        model, _, corpus = artifacts
        raw = bytearray(model.read_bytes())
        struct.pack_into("<Q", raw, 8, 1 << 40)  # vocab_size
        model.write_bytes(bytes(raw))
        code = main(["train", "--model", str(model), "--corpus", str(corpus),
                     "--out", str(tmp_path / "x.knga")])
        assert code == 2
        assert "tensor bytes" in capsys.readouterr().err


class TestBench:
    def test_gamma_zero_reports_cr_one(self, tmp_path, artifacts):
        model, adapter, corpus = artifacts
        out = tmp_path / "report.json"
        assert main([
            "bench", "--model", str(model), "--adapter", str(adapter),
            "--corpus", str(corpus), "--gamma", "0", "--n-tokens", "16",
            "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["pooled_cr"] == 1.0
        assert payload["simulated_speedup"] is not None

    def test_planted_fixture_reports_cr_seven(self, tmp_path, small_cfg):
        model = gen_passthrough_model(small_cfg, seed=13)
        adapter = passthrough_adapter(model)
        model_path = tmp_path / "pt.kngr"
        adapter_path = tmp_path / "pt.knga"
        corpus_path = tmp_path / "pt.txt"
        save_weights(model, model_path)
        save_adapter(adapter, adapter_path)
        corpus_path.write_text("7\n")
        out = tmp_path / "report.json"
        assert main([
            "bench", "--model", str(model_path), "--adapter", str(adapter_path),
            "--corpus", str(corpus_path), "--eta", "0", "--gamma", "6",
            "--n-tokens", "14", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["pooled_cr"] == 7.0

    def test_json_counts_nonfinite_confidences_and_deferred_rounds(
        self, tmp_path, split_at_1, nan_confidence_runs
    ):
        model, adapter, corpus = split_at_1
        out = tmp_path / "report.json"
        assert main([
            "bench", "--model", str(model), "--adapter", str(adapter),
            "--corpus", str(corpus), "--n-tokens", "24", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        [run] = nan_confidence_runs[0][1]
        assert payload["nonfinite_confidences"] == sum(t.drafted for t in run.rounds) > 0
        deferred = sum(t.deferred for t in run.rounds)
        assert payload["deferred_rounds"] == deferred > 0
        # rounds after a session stopped drafting draft nothing
        drafting = sum(t.drafted > 0 for t in run.rounds)
        assert payload["drafting_rounds"] == drafting
        assert deferred <= drafting < len(run.rounds) - len(run.results)

    def test_json_agrees_with_one_point_sweep(self, tmp_path, artifacts):
        model, adapter, corpus = artifacts
        inputs = ["--model", str(model), "--adapter", str(adapter), "--corpus", str(corpus),
                  "--n-tokens", "24", "--seed", "5"]
        bench_out, sweep_out = tmp_path / "bench.json", tmp_path / "sweep.csv"
        assert main(["bench", *inputs, "--eta", "0.3", "--gamma", "4",
                     "--out", str(bench_out)]) == 0
        assert main(["sweep", *inputs, "--etas", "0.3", "--gammas", "4",
                     "--out", str(sweep_out)]) == 0
        payload = json.loads(bench_out.read_text())
        [row] = csv.DictReader(io.StringIO(sweep_out.read_text()))
        assert (payload["eta"], payload["gamma"]) == (0.3, 4)
        assert (float(row["eta"]), int(row["gamma"])) == (0.3, 4)
        assert row["CR"] == f"{payload['pooled_cr']:.6f}"
        for w in range(1, 7):
            assert row[f"CTAR_{w}"] == f"{payload['ctar'][f'ctar_{w}']:.6f}"
        for counter in ("nonfinite_confidences", "drafting_rounds", "deferred_rounds"):
            assert int(row[counter]) == payload[counter]
        assert payload["drafting_rounds"] > 0

    def test_deterministic_apart_from_timing(self, tmp_path, artifacts):
        model, adapter, corpus = artifacts
        reports = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main([
                "bench", "--model", str(model), "--adapter", str(adapter),
                "--corpus", str(corpus), "--n-tokens", "12", "--seed", "5",
                "--out", str(out),
            ]) == 0
            payload = json.loads(out.read_text())
            for timing_field in ("speedup", "tokens_per_sec", "simulated_speedup"):
                payload.pop(timing_field)
            reports.append(payload)
        assert reports[0] == reports[1]

    def test_eta_outside_unit_interval_is_usage_error(self, artifacts):
        model, adapter, corpus = artifacts
        code = main([
            "bench", "--model", str(model), "--adapter", str(adapter),
            "--corpus", str(corpus), "--eta", "1.5",
        ])
        assert code == 2


class TestVerifyLossless:
    def test_default_grid_passes(self, artifacts, capsys):
        model, adapter, corpus = artifacts
        code = main([
            "verify-lossless", "--model", str(model), "--adapter", str(adapter),
            "--corpus", str(corpus), "--n-tokens", "24",
            "--etas", "0,0.5,1.0", "--gammas", "0,3",
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_fault_injected_verifier_fails(self, artifacts, capsys, faulty_verifier):
        model, adapter, corpus = artifacts
        code = main([
            "verify-lossless", "--model", str(model), "--adapter", str(adapter),
            "--corpus", str(corpus), "--n-tokens", "24",
            "--etas", "0,0.5", "--gammas", "4",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert DIVERGENCE.search(out)

    def test_empty_grid_is_usage_error(self, artifacts):
        model, adapter, corpus = artifacts
        code = main([
            "verify-lossless", "--model", str(model), "--adapter", str(adapter),
            "--corpus", str(corpus), "--etas", "", "--gammas", "2",
        ])
        assert code == 2

    def test_float64_inference_stays_lossless(self, artifacts):
        model, adapter, corpus = artifacts
        code = main([
            "verify-lossless", "--model", str(model), "--adapter", str(adapter),
            "--corpus", str(corpus), "--n-tokens", "12",
            "--etas", "0,0.6", "--gammas", "3", "--f64",
        ])
        assert code == 0

    def test_prompts_sized_by_the_context_bound(self, tmp_path, artifacts, capsys):
        # prompt + n_tokens <= max_seq_len + 1: 32 new tokens leave a 32-position
        # context room for 1-token prompts, and 33 leave none
        _, adapter, corpus = artifacts
        model = tmp_path / "short.kngr"
        assert main(["gen-model", "--out", str(model), *MODEL_FLAGS, "--exit-layer", "2",
                     "--max-seq-len", "32"]) == 0
        for n_tokens, expected in (("32", 0), ("33", 2)):
            code = main([
                "verify-lossless", "--model", str(model), "--adapter", str(adapter),
                "--corpus", str(corpus), "--n-tokens", n_tokens, "--etas", "0,0.6",
                "--gammas", "0,6",
            ])
            assert code == expected
        assert "--n-tokens 33 leaves no room for prompts" in capsys.readouterr().err

    def test_corpus_line_outside_the_vocabulary_exit_2(self, tmp_path, artifacts, capsys):
        model, adapter, _ = artifacts
        corpus = tmp_path / "wide.txt"
        corpus.write_text("1 2 3\n4 64 5\n")  # the fixture model's vocabulary is 64
        code = main([
            "verify-lossless", "--model", str(model), "--adapter", str(adapter),
            "--corpus", str(corpus), "--n-tokens", "4",
        ])
        assert code == 2
        assert "corpus line 2: prompt token id outside vocabulary" in capsys.readouterr().err

    def test_missing_model_exit_2(self, tmp_path, artifacts):
        _, adapter, corpus = artifacts
        code = main([
            "verify-lossless", "--model", str(tmp_path / "ghost.kngr"),
            "--adapter", str(adapter), "--corpus", str(corpus),
        ])
        assert code == 2


class TestDivergence:
    @pytest.mark.parametrize("command,grid", [
        ("bench", ["--eta", "0.5", "--gamma", "4"]),
        ("sweep", ["--etas", "0,0.5", "--gammas", "4"]),
    ], ids=["bench", "sweep"])
    def test_fault_injected_verifier_exits_1(
        self, artifacts, capsys, faulty_verifier, command, grid
    ):
        model, adapter, corpus = artifacts
        code = main([
            command, "--model", str(model), "--adapter", str(adapter),
            "--corpus", str(corpus), "--n-tokens", "24", *grid,
        ])
        assert code == 1
        assert DIVERGENCE.search(capsys.readouterr().err)


class TestSweep:
    def test_csv_grid_rows(self, tmp_path, artifacts):
        model, adapter, corpus = artifacts
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--model", str(model), "--adapter", str(adapter),
            "--corpus", str(corpus), "--etas", "0,0.5", "--gammas", "2,4",
            "--n-tokens", "12", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2
        assert lines[0].split(",")[:3] == ["eta", "gamma", "CR"]

    def test_csv_counts_match_traces(self, tmp_path, split_at_1, nan_confidence_runs):
        model, adapter, corpus = split_at_1
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--model", str(model), "--adapter", str(adapter),
            "--corpus", str(corpus), "--etas", "0,0.5", "--gammas", "2,4",
            "--n-tokens", "24", "--out", str(out),
        ]) == 0
        [(_, runs)] = nan_confidence_runs
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == len(runs) == 4
        for row, run in zip(rows, runs):
            traces = run.rounds
            assert (float(row["eta"]), int(row["gamma"])) == (run.policy.eta, run.policy.gamma_max)
            assert int(row["nonfinite_confidences"]) == sum(
                not math.isfinite(c) for t in traces for c in t.confidences
            )
            assert int(row["drafting_rounds"]) == sum(t.drafted > 0 for t in traces)
            assert int(row["deferred_rounds"]) == sum(t.deferred for t in traces)
        assert all(int(row["nonfinite_confidences"]) > 0 for row in rows)
        assert sum(int(row["deferred_rounds"]) for row in rows) > 0


class TestAdapterShapeCheck:
    """An adapter whose shape differs from the model's is refused at load.

    The fixture model is (d_model, n_heads, head_dim) = (32, 4, 8).  Without
    the check these adapters fail deep inside a kernel (an rmsnorm scale
    mismatch, or a rope head_dim mismatch).
    """

    @pytest.mark.parametrize("shape", [(64, 4, 16), (32, 2, 16), (32, 8, 4)],
                             ids=["d_model", "n_heads", "head_dim"])
    @pytest.mark.parametrize("command", ["bench", "verify-lossless", "sweep"])
    def test_mismatch_exit_2_names_both_shapes(self, tmp_path, artifacts, capsys, shape, command):
        model, _, corpus = artifacts
        d, heads, hd = shape
        adapter = tmp_path / "other.knga"
        zeros = (np.zeros((d, d), dtype=np.float32) for _ in range(4))
        save_adapter(AdapterWeights(
            input_norm=np.ones(d, dtype=np.float32),
            attn=AttentionParams(*zeros, n_heads=heads, head_dim=hd),
            output_norm=np.ones(d, dtype=np.float32),
        ), adapter)
        code = main([command, "--model", str(model), "--adapter", str(adapter),
                     "--corpus", str(corpus), "--n-tokens", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(shape) in err and "(32, 4, 8)" in err


class TestNegativeTokenCount:
    @pytest.mark.parametrize("command,grid", [
        ("bench", ["--eta", "0.5", "--gamma", "4"]),
        ("verify-lossless", ["--etas", "0,0.5", "--gammas", "4"]),
        ("sweep", ["--etas", "0,0.5", "--gammas", "4"]),
    ], ids=["bench", "verify-lossless", "sweep"])
    def test_exit_2_not_a_divergence(self, artifacts, capsys, command, grid):
        model, adapter, corpus = artifacts
        for n_tokens in ("-3", "0"):
            code = main([
                command, "--model", str(model), "--adapter", str(adapter),
                "--corpus", str(corpus), "--n-tokens", n_tokens, *grid,
            ])
            captured = capsys.readouterr()
            assert code == 2
            assert "--n-tokens must be >= 1" in captured.err
            assert "losslessness violation" not in captured.out + captured.err
            assert "PASS" not in captured.out


class TestPolicyGrid:
    @pytest.mark.parametrize("command,grid", [
        ("bench", ["--gamma", "-1"]),
        ("bench", ["--eta", "1.5"]),
        ("sweep", ["--gammas", "-1"]),
        ("sweep", ["--etas", "0,2"]),
    ], ids=["bench-gamma", "bench-eta", "sweep-gammas", "sweep-etas"])
    def test_bad_policy_exits_2_before_calibrating(
        self, artifacts, monkeypatch, command, grid
    ):
        def no_calibration(*args, **kwargs):
            raise AssertionError("calibrated before validating the policy grid")

        monkeypatch.setattr(selfspec.cli, "calibrate_latency", no_calibration)
        model, adapter, corpus = artifacts
        code = main([
            command, "--model", str(model), "--adapter", str(adapter),
            "--corpus", str(corpus), "--n-tokens", "8", *grid,
        ])
        assert code == 2


class TestOutputPaths:
    @pytest.mark.parametrize("command,outputs,flag", [
        ("gen-model", ["--out", "missing/x.kngr"], "--out"),
        ("train", ["--out", "missing/a.knga"], "--out"),
        ("train", ["--out", "a.knga", "--loss-out", "missing/curve.csv"], "--loss-out"),
        ("bench", ["--out", "missing/report.json"], "--out"),
        ("sweep", ["--out", "missing/sweep.csv"], "--out"),
    ], ids=["gen-model", "train-out", "train-loss-out", "bench", "sweep"])
    def test_missing_directory_exits_2_before_any_pass(
        self, tmp_path, artifacts, monkeypatch, capsys, command, outputs, flag
    ):
        def no_pass(*args, **kwargs):
            raise AssertionError("ran a pass before checking the output paths")

        monkeypatch.setattr(selfspec.cli, "train_adapter", no_pass)
        monkeypatch.setattr(selfspec.cli, "calibrate_latency", no_pass)
        model, adapter, corpus = artifacts
        inputs = {
            "gen-model": [],
            "train": ["--model", str(model), "--corpus", str(corpus)],
        }.get(command, ["--model", str(model), "--adapter", str(adapter), "--corpus", str(corpus)])
        paths = [str(tmp_path / v) if i % 2 else v for i, v in enumerate(outputs)]
        before = sorted(tmp_path.rglob("*"))
        assert main([command, *inputs, *paths]) == 2
        err = capsys.readouterr().err
        assert flag in err and "missing" in err
        assert sorted(tmp_path.rglob("*")) == before  # no file written


class TestParser:
    def test_unknown_command_exit_2(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("command", ["bench", "verify-lossless", "sweep"])
    def test_decoding_commands_take_no_exit_layer(self, artifacts, command):
        # the model header, written by gen-model, sets the exit layer
        model, adapter, corpus = artifacts
        assert main([command, "--model", str(model), "--adapter", str(adapter),
                     "--corpus", str(corpus), "--n-tokens", "4", "--exit-layer", "1"]) == 2

    def test_no_command_exit_2(self):
        assert main([]) == 2

    def test_verify_lossless_takes_no_seed(self, artifacts):
        # it draws no random numbers; only bench and sweep seed calibration
        model, adapter, corpus = artifacts
        assert main(["verify-lossless", "--model", str(model), "--adapter", str(adapter),
                     "--corpus", str(corpus), "--n-tokens", "4", "--seed", "1"]) == 2
