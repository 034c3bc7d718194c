import dataclasses

import numpy as np
import pytest

import selfspec.engine
import selfspec.model
import selfspec.simulator
from selfspec import (
    DraftPolicy,
    LatencyModel,
    calibrate_latency,
    desk_config,
    gen_model,
    gen_passthrough_model,
    generate,
    init_adapter,
    measure_walltime,
    passthrough_adapter,
    simulate_speedup,
    sweep,
)
from selfspec.engine import GenerationResult, RoundTrace, StopReason
from selfspec.errors import CalibrationError, ConfigError, MetricsDomainError
from selfspec.metrics import CTAR_WINDOWS, to_csv
from selfspec.seeding import generator


def trace(drafted, emitted, stop_reason=StopReason.MAX_STEPS, deferred=False):
    return RoundTrace(
        drafted=drafted,
        accepted_drafts=emitted - 1,
        confidences=[0.5] * drafted,
        stop_reason=stop_reason,
        deferred=deferred,
    )


def request(traces):
    """One request's result, as ``simulate_speedup`` takes it."""
    return GenerationResult(tokens=[], rounds=list(traces))


class TestLatencyModel:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LatencyModel(c_big=0.0)
        for field in ("c_row", "c_adapter", "c_overhead"):
            with pytest.raises(ConfigError):
                LatencyModel(c_big=1.0, **{field: -0.1})

    def test_round_cost(self):
        lat = LatencyModel(c_big=11.0, c_row=1.0, c_adapter=2.0, c_overhead=0.5)
        # one pass over the newest token's and three drafts' positions
        assert lat.round_cost(3) == 11.0 + 3 * 1.0 + 3 * 2.0 + 0.5
        # deferred: one position fewer when rejected; when fully accepted,
        # that position's greedy step as a second pass
        assert lat.round_cost(3, deferred=True) == 11.0 + 2 * 1.0 + 3 * 2.0 + 0.5
        assert lat.round_cost(3, True, True) == 2 * 11.0 + 2 * 1.0 + 3 * 2.0 + 0.5
        assert lat.round_cost(3, False, True) == lat.round_cost(3)

    def test_verification_charges_each_row_past_the_first(self):
        lat = LatencyModel(c_big=10.0, c_row=1.5)
        # an eager round verifies its drafts and the newest token's row
        for drafted in range(7):
            assert lat.round_cost(drafted) == 10.0 + drafted * 1.5
        # a deferred round verifies one row fewer
        assert lat.round_cost(3, deferred=True) == 10.0 + 2 * 1.5

    def test_deferred_bonus_pass_is_one_row(self):
        lat = LatencyModel(c_big=9.0, c_row=1.25, c_adapter=2.0, c_overhead=0.5)
        rejected, accepted = lat.round_cost(6, True), lat.round_cost(6, True, True)
        # full acceptance adds the final draft's shallow row and a one-row
        # pass: one greedy step
        assert accepted - rejected == 9.0
        # six drafts, seven positions in all, over two verification passes
        assert accepted == 2 * 9.0 + 5 * 1.25 + 6 * 2.0 + 0.5


def kind(t):
    """A round's kind: (drafted, deferred, fully accepted)."""
    return t.drafted > 0, t.deferred, t.accepted_drafts == t.drafted


# a greedy step, and eager and deferred rounds, rejected or fully accepted
ROUND_KINDS = {(False, False, True), (True, False, False), (True, False, True),
               (True, True, False), (True, True, True)}


def five_cost_charge(t, c_shallow, c_adapter, c_big, c_overhead, c_row):
    """A round's charge under the earlier five-cost model, whose ``c_big`` was a
    one-row verification and which charged a shallow row per verified row."""
    bonus = t.deferred and t.accepted_drafts == t.drafted
    passes = (t.drafted + (not t.deferred or bonus), t.drafted, 1 + bonus,
              t.drafted + (not t.deferred) + bonus, 1)
    costs = (c_shallow, c_adapter, c_big - c_row, c_row, c_overhead)
    return sum(n * c for n, c in zip(passes, costs))


class TestFourCosts:
    """Four costs price every round as the five-cost model did."""

    def test_equivalent_to_the_five_cost_charge(self):
        rng = generator(0, "five-costs")
        thr, seen = StopReason.THRESHOLD, set()
        for _ in range(200):
            c_big = float(rng.uniform(0.5, 2.0))
            c_shallow, c_adapter, c_overhead = (float(c) for c in rng.uniform(0.0, 1.0, 3))
            c_row = float(rng.uniform(0.0, c_big))
            lat = LatencyModel(c_shallow + c_big, c_shallow + c_row, c_adapter, c_overhead)
            requests, n_tokens = [], 0
            for _ in range(int(rng.integers(1, 4))):
                traces = [trace(0, 1)]  # a greedy step
                for _ in range(int(rng.integers(1, 10))):
                    drafted = int(rng.integers(1, 7))
                    emitted = int(rng.integers(1, drafted + 2))  # drafted + 1: fully accepted
                    traces.append(trace(drafted, emitted, thr, deferred=bool(rng.integers(2))))
                requests.append(request(traces))
                n_tokens += sum(t.emitted for t in traces)
            seen |= {kind(t) for r in requests for t in r.rounds}
            costs = (c_shallow, c_adapter, c_big, c_overhead, c_row)
            charges = [sum(five_cost_charge(t, *costs) for t in r.rounds) for r in requests]
            for r, charge in zip(requests, charges):
                assert lat.request_cost(r) == pytest.approx(charge, rel=1e-12)
            step = c_shallow + c_big
            expected = n_tokens * step / sum(charges)
            assert simulate_speedup(requests, lat, n_tokens) == pytest.approx(expected, rel=1e-12)
        assert seen == ROUND_KINDS

    @pytest.mark.parametrize("inputs", ["desk-init", "dial-passthrough"])
    def test_every_verified_position_ran_the_shallow_layers_once(
        self, monkeypatch, dialed_desk_model, inputs
    ):
        # After the prefill a request runs as many shallow rows as verified
        # rows, so the shallow row's cost never needs a price of its own.
        if inputs == "desk-init":
            model = dialed_desk_model(1.0)
            adapter = init_adapter(model, 2)
        else:
            model = dialed_desk_model(0.1)
            adapter = passthrough_adapter(model)
        rows = {"shallow": 0, "deep": 0}

        def counted(name, fn):
            def wrapper(*args):
                rows[name] += len(args[1])
                return fn(*args)
            return wrapper

        for module in (selfspec.engine, selfspec.model):  # greedy steps run the model's
            monkeypatch.setattr(module, "forward_shallow",
                                counted("shallow", module.forward_shallow))
            monkeypatch.setattr(module, "forward_remaining",
                                counted("deep", module.forward_remaining))
        rng = generator(5, "premise-prompts")
        kinds = set()
        for _ in range(8):
            length = int(rng.integers(4, 12))
            prompt = [int(t) for t in rng.integers(model.config.vocab_size, size=length)]
            rows.update(shallow=0, deep=0)
            result = generate(model, adapter, DraftPolicy(), prompt, 48)
            assert rows["shallow"] == rows["deep"] > 0
            kinds |= {kind(t) for t in result.rounds}
        # desk drafts are rejected, deferred, until the session stops drafting
        desk = {(False, False, True), (True, True, False)}
        assert kinds == (desk if inputs == "desk-init" else ROUND_KINDS)


class TestSimulateSpeedup:
    def test_hand_example(self):
        # Two rounds of one draft each, four tokens total, draft probes cost
        # one unit against a big forward of ten.
        traces = [trace(1, 2), trace(1, 2)]
        lat = LatencyModel(c_big=10.0, c_row=0.0, c_adapter=1.0, c_overhead=0.0)
        assert simulate_speedup([request(traces)], lat, 4) == pytest.approx(40.0 / 22.0)

    def test_free_draft_limit_equals_cr(self):
        traces = [trace(6, 7), trace(6, 7)]
        lat = LatencyModel(c_big=1.0)
        assert simulate_speedup([request(traces)], lat, 14) == pytest.approx(7.0, abs=1e-9)

    def test_vanilla_identity(self):
        traces = [trace(0, 1)] * 5
        lat = LatencyModel(c_big=3.0)
        assert simulate_speedup([request(traces)], lat, 5) == pytest.approx(1.0, abs=1e-12)

    def test_zero_draft_rounds_cost_a_greedy_step(self):
        # A gamma_max=0 run: each round is one shallow row and a one-row
        # verification, which is what a greedy step costs.
        traces = [trace(0, 1)] * 5
        lat = LatencyModel(c_big=3.5, c_row=0.5, c_adapter=2.0)
        assert simulate_speedup([request(traces)] * 2, lat, 10) == 1.0

    def test_token_mismatch_rejected(self):
        with pytest.raises(MetricsDomainError):
            simulate_speedup([request([trace(1, 2)])], LatencyModel(c_big=1.0), 5)

    def test_free_draft_limit_random_traces(self):
        rng = generator(0, "traces")
        for _ in range(20):
            traces = [
                trace(int(rng.integers(0, 7)), int(rng.integers(1, 8)))
                for _ in range(int(rng.integers(1, 12)))
            ]
            n = sum(t.emitted for t in traces)
            cr = n / len(traces)
            speedup = simulate_speedup([request(traces)], LatencyModel(c_big=1.0), n)
            assert speedup == pytest.approx(cr, abs=1e-9)

    def test_deferred_rounds_are_charged_their_passes(self):
        # Every round stops on the threshold; each trace says whether it
        # deferred.  The first runs eager, the others deferred.
        thr = StopReason.THRESHOLD
        traces = [trace(1, 1, thr), trace(2, 1, thr, True), trace(1, 2, thr, True)]
        lat = LatencyModel(c_big=11.0, c_row=1.0)
        # eager 11 + 1, deferred and rejected 11 + 1, deferred and accepted
        # 2 * 11, against four greedy steps of 11
        assert simulate_speedup([request(traces)], lat, 4) == pytest.approx(44.0 / 46.0)
        # a rejected round verifies one position less when it deferred
        eager = simulate_speedup([request(traces[:1])] * 2, lat, 2)
        assert eager == pytest.approx(22.0 / 24.0)
        deferred = simulate_speedup([request([trace(1, 1, thr, True)])] * 2, lat, 2)
        assert deferred == pytest.approx(22.0 / 22.0)

    def test_monotone_in_each_cost(self):
        traces = [trace(3, 2), trace(2, 4), trace(3, 1)]
        n = 7
        base = LatencyModel(c_big=5.2, c_row=0.2, c_adapter=0.1, c_overhead=0.3)
        s0 = simulate_speedup([request(traces)], base, n)
        for field in ("c_row", "c_adapter", "c_overhead"):
            bumped = {**base.__dict__, field: getattr(base, field) + 0.2}
            assert simulate_speedup([request(traces)], LatencyModel(**bumped), n) < s0


@pytest.fixture(scope="module")
def prompts(small_model):
    rng = generator(21, "sweep-prompts")
    return [
        [int(t) for t in rng.integers(small_model.config.vocab_size, size=5)]
        for _ in range(3)
    ]


def grid(etas, gammas):
    return [DraftPolicy(eta=eta, gamma_max=gamma) for eta in etas for gamma in gammas]


class TestSweep:
    def test_grid_shape(self, small_model, small_adapter, prompts):
        lat = LatencyModel(c_big=1.2, c_row=0.2, c_adapter=0.1)
        policies = grid([0.0, 0.5], [0, 3, 6])
        report = sweep(small_model, small_adapter, prompts, policies, lat, n_tokens=24)
        assert len(report) == 2 * 3
        lines = to_csv(report).strip().splitlines()
        assert len(lines) == 1 + 6
        assert lines[0].split(",")[:3] == ["eta", "gamma", "CR"]
        assert lines[0].split(",")[3:9] == [f"CTAR_{w}" for w in CTAR_WINDOWS]
        assert lines[0].split(",")[9:11] == ["simulated_speedup", "measured_speedup"]
        # appended after the 11 original columns
        assert lines[0].split(",")[11:] == [
            "tokens_per_sec", "nonfinite_confidences", "drafting_rounds", "deferred_rounds",
            "subtask",
        ]
        assert [row.split(",")[:2] for row in lines[1:]] == [
            [eta, gamma] for eta in ("0", "0.5") for gamma in ("0", "3", "6")
        ]

    def test_gamma_zero_row_is_vanilla(self, small_model, small_adapter, prompts):
        lat = LatencyModel(c_big=1.0)
        policies = grid([0.0, 0.4, 0.9], [0])
        report = sweep(small_model, small_adapter, prompts, policies, lat, n_tokens=16)
        assert all(p.pooled_cr == 1.0 for p in report)

    def test_eta_zero_attains_max_cr(self, small_model, small_adapter, prompts):
        lat = LatencyModel(c_big=1.1, c_row=0.1, c_adapter=0.1)
        report = sweep(
            small_model, small_adapter, prompts, grid([0.0, 0.3, 0.6, 1.0], [6]), lat, n_tokens=32
        )
        by_eta = {p.eta: p.pooled_cr for p in report}
        assert by_eta[0.0] == max(by_eta.values())

    def test_cr_grid_reproducible(self, small_model, small_adapter, prompts):
        lat = LatencyModel(c_big=1.0)
        a = sweep(small_model, small_adapter, prompts, grid([0.0, 0.5], [2]), lat, n_tokens=16)
        b = sweep(small_model, small_adapter, prompts, grid([0.0, 0.5], [2]), lat, n_tokens=16)
        assert [p.pooled_cr for p in a] == [p.pooled_cr for p in b]
        assert [p.ctar_pooled for p in a] == [p.ctar_pooled for p in b]

    def test_empty_grid_rejected(self, small_model, small_adapter, prompts):
        with pytest.raises(ConfigError):
            sweep(small_model, small_adapter, prompts, grid([], [2]), LatencyModel(c_big=1.0), 8)


class TestCalibration:
    def test_fit_is_positive_and_usable(self, small_model, small_adapter):
        lat = calibrate_latency(small_model, small_adapter, reps=3)
        assert lat.c_big > 0
        assert min(lat.c_row, lat.c_adapter, lat.c_overhead) >= 0.0
        assert lat.c_row <= lat.c_big

    def test_predicts_held_out_run(self, small_model, small_adapter):
        policy = DraftPolicy(eta=0.0, gamma_max=6)
        prompt = [5, 1, 3, 2]
        n_tokens = 48
        generate(small_model, small_adapter, policy, prompt, n_tokens)  # warmup

        def relative_error():
            # Calibrations and timed held-out runs alternate, so each pair sees
            # the host at the same moment; the median pair's ratio is the error.
            ratios = []
            for _ in range(5):
                lat = calibrate_latency(small_model, small_adapter, reps=9)
                measured, result = measure_walltime(
                    generate, small_model, small_adapter, policy, prompt, n_tokens, repetitions=3
                )
                # the charge ``simulate_speedup`` sums for each request
                ratios.append(lat.request_cost(result) / measured)
            return abs(float(np.median(ratios)) - 1.0)

        # A burst of host load can spoil most pairs of one loop; allow a retry.
        if relative_error() > 0.25:
            assert relative_error() <= 0.25

    def test_deep_stack_raises_big_cost(self, desk_cfg):
        from selfspec.model import ModelConfig

        shallow_cfg = desk_cfg
        deep_cfg = ModelConfig(**{**shallow_cfg.__dict__, "n_layers": 14})
        lat_small = calibrate_latency(
            gen_model(shallow_cfg, 1), init_adapter(gen_model(shallow_cfg, 1), 2), reps=5
        )
        lat_big = calibrate_latency(
            gen_model(deep_cfg, 1), init_adapter(gen_model(deep_cfg, 1), 2), reps=5
        )
        # Doubling the remaining-layer count should raise the verification
        # cost roughly proportionally; allow a generous band for timer noise.
        assert lat_big.c_big > lat_small.c_big * 1.2

    def test_probe_lengths_beyond_context(self, small_cfg):
        # the longest probe context, 48, plus gamma rows does not fit 56
        short = gen_model(dataclasses.replace(small_cfg, max_seq_len=56), seed=41)
        with pytest.raises(ConfigError, match="probe lengths exceed the model context"):
            calibrate_latency(short, init_adapter(short, seed=42), reps=1)

    @pytest.mark.parametrize("gamma", [20, 40, 70])
    def test_whole_rounds_fit_the_context(self, monkeypatch, gamma):
        # Every passthrough draft is accepted, so unbounded rounds of gamma + 1
        # tokens would outgrow a 128-position context by the third round.
        model = gen_passthrough_model(desk_config(max_seq_len=128), 43)
        run_round = selfspec.simulator.DecodeSession.run_round
        lengths = []

        def recorded(session, *args):
            trace = run_round(session, *args)
            lengths.append(len(session.tokens))
            return trace

        monkeypatch.setattr(selfspec.simulator.DecodeSession, "run_round", recorded)
        lat = calibrate_latency(model, passthrough_adapter(model), reps=5, gamma=gamma)
        assert lat.c_big > 0
        assert len(lengths) == 6 and lengths[-1] <= model.config.max_seq_len + 1

    def test_whole_rounds_past_the_context_rejected_before_any_pass(self, monkeypatch):
        # An 8-token prompt leaves 53 positions of a 60-position context: 53
        # whole rounds fit, 54 do not.
        model = gen_passthrough_model(desk_config(max_seq_len=60), 43)

        def no_pass(*_args):
            raise AssertionError("calibration ran a pass before checking the context")

        monkeypatch.setattr(selfspec.simulator, "prefill", no_pass)
        with pytest.raises(ConfigError, match="54 whole rounds exceed the model context of 60"):
            calibrate_latency(model, passthrough_adapter(model), reps=53)

    def test_singular_design_detected(self, monkeypatch, small_model, small_adapter):
        monkeypatch.setattr(
            np.linalg, "matrix_rank", lambda *_args, **_kw: 3
        )
        with pytest.raises(CalibrationError):
            calibrate_latency(small_model, small_adapter, reps=1)

    @pytest.mark.parametrize("gamma", [0, -1])
    def test_gamma_below_one_rejected_before_any_pass(self, monkeypatch, small_model,
                                                      small_adapter, gamma):
        def no_pass(*_args):
            raise AssertionError("calibration ran a pass before checking gamma")

        monkeypatch.setattr(selfspec.simulator, "prefill", no_pass)
        with pytest.raises(ConfigError, match="gamma >= 1"):
            calibrate_latency(small_model, small_adapter, reps=1, gamma=gamma)
