import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uncal
from uncal import jsonio, ragctl
from uncal.errors import EmptyBatch, MissingSignal
from uncal.ragctl import ControllerPolicy, PolicyKind

from conftest import (
    count_calls,
    outcome,
    random_rag_batch,
    rows,
    run_policy,
    sweep_threshold,
    trace,
    traces,
)
from oracles import (
    RagTraceRecord,
    oracle_decide,
    oracle_match_answer,
    oracle_trace_table,
    oracle_trigger_counts,
    oracle_trigger_reports,
    trace_records,
)

# answers with repeated tokens, articles, punctuation, yes/no words and dates
_ANSWERS = st.lists(st.sampled_from([
    "new", "new", "York", "the", "a", ",", "yes", "True", "no", "1920", "March", "5",
    "1920-03-05", "city", "",
]), max_size=5).map(" ".join)


def hand_trace(qid, noret_ok, ret_ok, conf=0.5, emissions=0, probe_score=None,
               token_probs=None, external=None):
    """A trace line whose answers are right or wrong as `noret_ok` and `ret_ok` say."""
    return trace(qid, ("alpha",), "alpha" if noret_ok else "omega",
                 "alpha" if ret_ok else "omega", noret_confidence=conf,
                 noret_emissions=emissions, noret_probe_score=probe_score,
                 noret_token_probs=token_probs, external_trigger=external)


HAND_LINES = [
    hand_trace("r1", noret_ok=False, ret_ok=True, conf=0.2),
    hand_trace("r2", noret_ok=False, ret_ok=False, conf=0.8),
    hand_trace("r3", noret_ok=True, ret_ok=True, conf=0.3),
    hand_trace("r4", noret_ok=True, ret_ok=False, conf=0.9),
]
HAND_FIXTURE = traces(HAND_LINES)


def decided(policy, *lines):
    """The policy's decisions over the trace lines `lines` as a list of bools."""
    return ragctl.decide(policy, ragctl.score_traces(traces(lines))).tolist()


class TestDecide:
    def test_never_and_always(self):
        record = HAND_LINES[0]
        assert decided(ControllerPolicy(PolicyKind.NEVER), record) == [False]
        assert decided(ControllerPolicy(PolicyKind.ALWAYS), record) == [True]

    def test_confidence_threshold_is_strict(self):
        record = hand_trace("r", True, True, conf=0.5)
        policy = ControllerPolicy(PolicyKind.CONFIDENCE_THRESHOLD, 0.5)
        assert decided(policy, record) == [False]
        assert decided(ControllerPolicy(PolicyKind.CONFIDENCE_THRESHOLD, 0.51), record) == [True]

    def test_flare_threshold(self):
        record = hand_trace("r", True, True, token_probs=(0.4, 0.6, 0.9))
        assert decided(ControllerPolicy(PolicyKind.TOKEN_PROB_WINDOW, 0.4), record) == [False]
        low = hand_trace("r", True, True, token_probs=(0.39, 0.6))
        assert decided(ControllerPolicy(PolicyKind.TOKEN_PROB_WINDOW, 0.4), low) == [True]
        empty = hand_trace("r", True, True, token_probs=())  # no probability: never fires
        assert decided(ControllerPolicy(PolicyKind.TOKEN_PROB_WINDOW, 1.0), empty) == [False]

    def test_emission_only(self):
        policy = ControllerPolicy(PolicyKind.EMISSION_ONLY)
        assert decided(policy, hand_trace("r", True, True, emissions=1)) == [True]
        assert decided(policy, hand_trace("r", True, True)) == [False]

    def test_emission_plus_probe(self):
        policy = ControllerPolicy(PolicyKind.EMISSION_PLUS_PROBE, 0.6)
        assert decided(policy, hand_trace("r", True, True, emissions=1, probe_score=0.7)) == [True]
        assert decided(policy, hand_trace("r", True, True, emissions=1, probe_score=0.5)) == [False]
        # no emission short-circuits without needing the probe score
        assert decided(policy, hand_trace("r", True, True, emissions=0)) == [False]

    def test_missing_signals(self):
        record = trace("r", ("a",), "a", "a")
        with pytest.raises(MissingSignal):
            decided(ControllerPolicy(PolicyKind.CONFIDENCE_THRESHOLD, 0.5), record)
        with pytest.raises(MissingSignal):
            decided(ControllerPolicy(PolicyKind.TOKEN_PROB_WINDOW, 0.4), record)
        with pytest.raises(MissingSignal):
            decided(ControllerPolicy(PolicyKind.EXTERNAL), record)

    def test_external_column(self):
        policy = ControllerPolicy(PolicyKind.EXTERNAL)
        assert decided(policy, hand_trace("r", True, True, external=True)) == [True]
        assert decided(policy, hand_trace("r", True, True, external=False)) == [False]


class TestSimulate:
    def test_always_reproduces_retrieve_all(self):
        report = run_policy(ControllerPolicy(PolicyKind.ALWAYS), HAND_FIXTURE)
        assert report["trigger_rate"] == 1.0
        # final answers are the retrieval answers: r1, r3 correct
        assert report["final_em"] == pytest.approx(0.5)
        assert report["untouched_accuracy"] is None
        assert report["trigger_recall"] == 1.0

    def test_never_reproduces_no_retrieval(self):
        report = run_policy(ControllerPolicy(PolicyKind.NEVER), HAND_FIXTURE)
        assert report["trigger_rate"] == 0.0
        assert report["final_em"] == pytest.approx(0.5)
        assert report["untouched_accuracy"] == pytest.approx(0.5)
        assert report["trigger_precision"] is None
        assert report["trigger_recall"] == 0.0

    def test_hand_fixture_counts(self):
        report = run_policy(
            ControllerPolicy(PolicyKind.CONFIDENCE_THRESHOLD, 0.5), HAND_FIXTURE
        )
        assert report["trigger_rate"] == pytest.approx(0.5)
        assert report["trigger_precision"] == pytest.approx(0.5)
        assert report["trigger_recall"] == pytest.approx(0.5)
        assert report["untouched_accuracy"] == pytest.approx(0.5)
        # both triggered records end correct after retrieval
        assert report["wrong_within_triggered"] == 0.0
        assert report["final_em"] == pytest.approx(0.75)

    def test_counts_partition_and_identities(self, rng):
        for _ in range(20):
            records = random_rag_batch(rng, int(rng.integers(2, 30)))
            policy = ControllerPolicy(PolicyKind.CONFIDENCE_THRESHOLD, float(rng.uniform(0, 1)))
            report = run_policy(policy, records)
            untouched = report["n"] - report["triggered"]
            assert untouched >= 0
            if report["trigger_precision"] is not None:
                assert report["trigger_precision"] * report["triggered"] == pytest.approx(
                    report["triggered_and_wrong"]
                )
            if report["noret_wrong"]:
                always = run_policy(ControllerPolicy(PolicyKind.ALWAYS), records)
                assert always["trigger_recall"] == 1.0

    def test_agrees_with_recount_oracle(self, rng):
        for _ in range(20):
            records = random_rag_batch(rng, int(rng.integers(3, 25)))
            tau = float(rng.uniform(0.0, 1.0))
            policy = ControllerPolicy(PolicyKind.CONFIDENCE_THRESHOLD, tau)
            report = run_policy(policy, records)
            decisions = ragctl.decide(policy, ragctl.score_traces(records)).tolist()
            noret_ok = [answer == "alpha" for answer in records["noret_answer"]]
            final_ok = [
                (r["ret_answer"] if d else r["noret_answer"]) == "alpha"
                for d, r in zip(decisions, rows(records))
            ]
            counts = oracle_trigger_counts(decisions, noret_ok, final_ok)
            assert report["triggered"] == counts["triggered"]
            assert report["noret_wrong"] == counts["noret_wrong"]
            assert report["triggered_and_wrong"] == counts["triggered_and_wrong"]

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            run_policy(ControllerPolicy(PolicyKind.ALWAYS), traces([]))


class TestSweepThreshold:
    def test_endpoints_reproduce_never_and_always(self):
        # all fixture confidences sit strictly inside (0, 1)
        reports = sweep_threshold(
            PolicyKind.CONFIDENCE_THRESHOLD, HAND_FIXTURE, [0.0, 1.0]
        )
        never = run_policy(ControllerPolicy(PolicyKind.NEVER), HAND_FIXTURE)
        always = run_policy(ControllerPolicy(PolicyKind.ALWAYS), HAND_FIXTURE)
        assert reports[0][1] == never
        assert reports[1][1] == always

    def test_trigger_rate_monotone_in_tau(self, rng):
        grid = [i / 20 for i in range(21)]
        for _ in range(10):
            records = random_rag_batch(rng, 30)
            reports = sweep_threshold(PolicyKind.CONFIDENCE_THRESHOLD, records, grid)
            rates = [r["trigger_rate"] for _, r in reports]
            assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_single_point_grid_equals_simulate(self, rng):
        records = random_rag_batch(rng, 12)
        [(value, report)] = sweep_threshold(
            PolicyKind.CONFIDENCE_THRESHOLD, records, [0.4]
        )
        assert value == 0.4
        assert report == run_policy(ControllerPolicy(PolicyKind.CONFIDENCE_THRESHOLD, 0.4), records)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_threshold(PolicyKind.CONFIDENCE_THRESHOLD, HAND_FIXTURE, [])


class TestPolicySpec:
    def test_round_trips(self):
        assert ragctl.parse_policy_spec("always").kind is PolicyKind.ALWAYS
        assert ragctl.parse_policy_spec("never").kind is PolicyKind.NEVER
        assert ragctl.parse_policy_spec("emit").kind is PolicyKind.EMISSION_ONLY
        policy = ragctl.parse_policy_spec("conf:0.5")
        assert policy.kind is PolicyKind.CONFIDENCE_THRESHOLD and policy.threshold == 0.5
        policy = ragctl.parse_policy_spec("emit+probe:0.6")
        assert policy.kind is PolicyKind.EMISSION_PLUS_PROBE and policy.threshold == 0.6
        policy = ragctl.parse_policy_spec("flare:0.4")
        assert policy.kind is PolicyKind.TOKEN_PROB_WINDOW and policy.threshold == 0.4
        assert ragctl.parse_policy_spec(" External ").kind is PolicyKind.EXTERNAL

    def test_rejects_garbage(self):
        for spec in ("sometimes", "flare:0.3:4", "clf", "conf", "always:0.5", "conf:high"):
            with pytest.raises(ValueError):
                ragctl.parse_policy_spec(spec)

    def test_parameter_ranges_validated(self):
        with pytest.raises(ValueError):
            ControllerPolicy(PolicyKind.CONFIDENCE_THRESHOLD, 1.5)
        with pytest.raises(ValueError):
            ControllerPolicy(PolicyKind.TOKEN_PROB_WINDOW, -0.1)
        with pytest.raises(ValueError):
            ragctl.parse_policy_spec("emit+probe:2")

    def test_threshold_only_on_thresholded_kinds(self):
        for kind in (PolicyKind.CONFIDENCE_THRESHOLD, PolicyKind.EMISSION_PLUS_PROBE,
                     PolicyKind.TOKEN_PROB_WINDOW):
            assert ControllerPolicy(kind, 0.5).threshold == 0.5
            with pytest.raises(ValueError, match="needs a threshold"):
                ControllerPolicy(kind)
            with pytest.raises(ValueError, match="threshold must lie in"):
                ControllerPolicy(kind, float("nan"))
        for kind in (PolicyKind.ALWAYS, PolicyKind.NEVER, PolicyKind.EMISSION_ONLY,
                     PolicyKind.EXTERNAL):
            assert ControllerPolicy(kind).threshold is None
            with pytest.raises(ValueError, match="takes no threshold"):
                ControllerPolicy(kind, 0.5)


_NAN, _INF = float("nan"), float("inf")


class TestRecordRanges:
    """The trace table is the one check of a signal's value: the loader
    refuses the lines whose signal the record must not hold, naming the field
    and the line, so no NaN reaches `decide` as a missing signal."""

    @pytest.mark.parametrize("field, bad", [
        ("noret_probe_score", _NAN), ("noret_probe_score", _INF),
        ("noret_probe_score", -_INF),
        ("noret_token_probs", (_NAN,)), ("noret_token_probs", (0.5, _NAN)),
        ("noret_token_probs", (0.0,)), ("noret_token_probs", (0.9, 1.5)),
        ("noret_token_probs", (-0.1,)),
    ])
    def test_table_and_record_refuse_the_same_values(self, tmp_path, field, bad):
        fields = {"qid": "r", "gold_answers": ["a"], "noret_answer": "a", "ret_answer": "a"}
        value = list(bad) if isinstance(bad, tuple) else bad
        path = tmp_path / "traces.jsonl"
        # `json.dumps` writes the literals NaN, Infinity and -Infinity
        path.write_text(json.dumps(fields) + "\n" + json.dumps({**fields, field: value}) + "\n")
        loaded = jsonio.load_lines(path, jsonio.RAG_TRACES)
        [(line, message)] = loaded.errors
        assert line == 2 and message.startswith(f"{field} must be ")
        assert loaded.records["qid"] == ["r"]

    def test_edges_accepted(self):
        for probe_score, token_probs in ((-3.0, [1.0]), (1e300, [5e-324, 1.0]), (0.0, [])):
            table = traces([hand_trace("r", True, True, probe_score=probe_score,
                                       token_probs=token_probs)])
            assert table["noret_min_token_prob"] == [min(token_probs, default=_INF)]
            assert table["noret_probe_score"] == [probe_score]


def test_per_dataset_reports(rng):
    records = random_rag_batch(rng, 40)
    policy = ControllerPolicy(PolicyKind.ALWAYS)
    scored = ragctl.score_traces(records)
    by_dataset = ragctl.trigger_reports_by_dataset(scored, ragctl.decide(policy, scored))
    assert set(by_dataset) == set(records["dataset"])
    assert sum(r["n"] for r in by_dataset.values()) == 40


class TestScoredTraces:
    def test_each_answer_matched_once_for_the_whole_sweep(self, rng, monkeypatch):
        calls = count_calls(monkeypatch, ragctl, "match_answer")
        records = random_rag_batch(rng, 30)
        sweep_threshold(PolicyKind.CONFIDENCE_THRESHOLD, records,
                        [i / 10 for i in range(11)])
        # one match per no-retrieval answer, one per changed with-retrieval answer
        assert len(calls) == 48 == 30 + sum(
            ret != noret for ret, noret in zip(records["ret_answer"], records["noret_answer"]))

    @staticmethod
    def assert_oracle_scores(table, f1_threshold):
        scored = ragctl.score_traces(table, f1_threshold)
        for columns, answers in ((scored.noret, table["noret_answer"]),
                                 (scored.ret, table["ret_answer"])):
            got = zip(columns.correct.tolist(), columns.rule.tolist(), columns.f1.tolist(),
                      strict=True)
            for (correct, rule, f1), answer, golds in zip(got, answers, table["gold_answers"],
                                                          strict=True):
                want = oracle_match_answer(answer, golds, f1_threshold)
                assert (correct, rule, repr(f1)) == (want.correct, want.rule, repr(want.f1))

    def test_fixture_scores_equal_per_answer_oracle_matching(self):
        records = jsonio.load_lines(uncal.fixture_path("ragtraces20.jsonl"), jsonio.RAG_TRACES).records
        assert len(records["qid"]) == 20
        for f1_threshold in (0.0, 0.3, 1.0):
            self.assert_oracle_scores(records, f1_threshold)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.lists(_ANSWERS, min_size=1, max_size=4), _ANSWERS, _ANSWERS,
                              st.booleans()), max_size=8),
           st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0))
    def test_random_scores_equal_per_answer_oracle_matching(self, lines, f1_threshold):
        table = traces([trace(f"r{i}", golds, noret, noret if same else ret)
                        for i, (golds, noret, ret, same) in enumerate(lines)])
        self.assert_oracle_scores(table, f1_threshold)

    def test_reports_are_counts_over_one_scoring(self, rng):
        records = random_rag_batch(rng, 50)
        scored = ragctl.score_traces(records)
        assert scored.noret.correct.tolist() == [a == "alpha" for a in records["noret_answer"]]
        assert scored.ret.correct.tolist() == [a == "alpha" for a in records["ret_answer"]]
        for policy in (ControllerPolicy(PolicyKind.CONFIDENCE_THRESHOLD, 0.4),
                       ControllerPolicy(PolicyKind.EMISSION_ONLY), ControllerPolicy(PolicyKind.ALWAYS)):
            fires = ragctl.decide(policy, scored)
            assert ragctl.trigger_report(scored, fires) == run_policy(policy, records)
            by_dataset = ragctl.trigger_reports_by_dataset(scored, fires)
            assert list(by_dataset) == sorted(set(records["dataset"]))
            for name, report in by_dataset.items():
                members = {key: [v for v, d in zip(column, records["dataset"]) if d == name]
                           for key, column in records.items()}
                assert report == run_policy(policy, members)

    def test_empty_batch(self):
        scored = ragctl.score_traces(traces([]))
        with pytest.raises(EmptyBatch):
            ragctl.trigger_report(scored, [])
        assert ragctl.trigger_reports_by_dataset(scored, []) == {}


# answers that exact-match, yes/no-match or date-match some gold, or share
# some of its tokens (token F1 of 0.4, 0.5, 2/3, 0.8, ...)
_SHORT = st.sampled_from(["alpha", "Alpha.", "omega", "beta gamma", "gamma", "yes", "true",
                          "1920", "March 1920", "", "beta gamma delta", "gamma delta epsilon"])
# tied values, the ends of [0,1], and any value in it
_UNIT = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
_THRESHOLDED = (PolicyKind.CONFIDENCE_THRESHOLD, PolicyKind.EMISSION_PLUS_PROBE,
                PolicyKind.TOKEN_PROB_WINDOW)
_ANY_POLICY = st.sampled_from(PolicyKind).flatmap(
    lambda kind: st.builds(ControllerPolicy, st.just(kind),
                           _UNIT if kind in _THRESHOLDED else st.none()))


@st.composite
def _signal_traces(draw):
    """Up to 30 traces with qids r0, r1, ...; in half the batches any trace
    may lack any signal, in the others none does."""
    lacking = draw(st.booleans())

    def signal(values):
        return st.none() | values if lacking else values

    records = draw(st.lists(st.integers(0, 2).flatmap(lambda emissions: st.builds(
        RagTraceRecord, qid=st.just(""), gold_answers=st.lists(_SHORT, min_size=1, max_size=2),
        noret_answer=_SHORT, ret_answer=_SHORT, dataset=st.sampled_from(["", "d1", "d2"]),
        noret_confidence=signal(_UNIT), noret_emissions=st.just(emissions),
        # a trace without an emission may lack a probe score in any batch
        noret_probe_score=signal(_UNIT) if emissions else st.none() | _UNIT,
        noret_token_probs=signal(st.lists(
            st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.0, 1.0, exclude_min=True),
            max_size=3)),
        external_trigger=signal(st.booleans()),
    )), max_size=30))
    return [RagTraceRecord(**{**vars(r), "qid": f"r{i}"}) for i, r in enumerate(records)]


@settings(max_examples=400, deadline=None)
@given(_signal_traces(), _ANY_POLICY, st.sampled_from([0.0, 0.3, 1.0]))
def test_reports_equal_the_former_per_record_loop(records, policy, f1_threshold):
    table = traces(list(map(vars, records)))
    assert table == oracle_trace_table(records)

    def columnar():
        scored = ragctl.score_traces(table, f1_threshold)
        fires = ragctl.decide(policy, scored)
        return (ragctl.trigger_report(scored, fires),
                ragctl.trigger_reports_by_dataset(scored, fires))

    got = outcome(columnar)
    want = outcome(lambda: oracle_trigger_reports(records, policy, f1_threshold))
    # repr also tells a numpy scalar from the Python number the loop gave
    assert got == want and repr(got) == repr(want)


class TestFlareDecisions:
    """`flare:T` reads the one minimum token probability a load keeps per
    trace; it decides as the per-record rule did from the whole list (some
    probability strictly below T), for absent, empty and non-empty lists."""

    @staticmethod
    def assert_oracle_decisions(table, records, threshold):
        policy = ControllerPolicy(PolicyKind.TOKEN_PROB_WINDOW, threshold)
        got = outcome(lambda: ragctl.decide(policy, ragctl.score_traces(table)).tolist())
        assert got == outcome(lambda: [oracle_decide(policy, r) for r in records])

    def test_fixture(self):
        path = uncal.fixture_path("ragtraces20.jsonl")
        table = jsonio.load_lines(path, jsonio.RAG_TRACES).records
        lines = path.read_text(encoding="utf-8").splitlines()
        records = trace_records(list(map(json.loads, lines)))
        minima = {min(r.noret_token_probs) for r in records}
        for threshold in sorted(minima | {0.0, 0.3, 1.0}):
            self.assert_oracle_decisions(table, records, threshold)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.none() | st.lists(
        st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.0, 1.0, exclude_min=True),
        max_size=4), min_size=1, max_size=10), st.data())
    def test_drawn(self, token_probs, data):
        # a threshold drawn from the minima themselves, where `<` is decided
        minima = sorted({min(probs) for probs in token_probs if probs})
        threshold = data.draw(st.sampled_from([0.0, 1.0, *minima]) | st.floats(0.0, 1.0))
        lines = [hand_trace(f"r{i}", True, True, token_probs=probs)
                 for i, probs in enumerate(token_probs)]
        self.assert_oracle_decisions(traces(lines), trace_records(lines), threshold)


class TestMissingSignalOrder:
    @pytest.mark.parametrize("spec, lacking, words", [
        ("conf:0.5", {"noret_confidence": None}, "confidence"),
        ("emit+probe:0.5", {"noret_probe_score": None}, "probe score"),
        ("flare:0.5", {"noret_token_probs": None}, "token probabilities"),
        ("external", {"external_trigger": None}, "external trigger column"),
    ])
    def test_names_the_first_record_lacking_the_signal(self, spec, lacking, words):
        full = hand_trace("", True, True, conf=0.5, emissions=1, probe_score=0.5,
                          token_probs=(0.5,), external=True)
        lines = [{**full, "qid": f"r{i}", **(lacking if i >= 2 else {})} for i in range(4)]
        with pytest.raises(MissingSignal, match=f"^record 'r2' has no {words}$"):
            ragctl.decide(ragctl.parse_policy_spec(spec), ragctl.score_traces(traces(lines)))

    def test_emit_probe_passes_over_a_record_without_emission(self):
        # the first record lacks a probe score but does not emit, so it needs none
        table = traces([hand_trace("r0", True, True),
                        hand_trace("r1", True, True, emissions=1, probe_score=0.5),
                        hand_trace("r2", True, True, emissions=2),
                        hand_trace("r3", True, True, emissions=1)])
        with pytest.raises(MissingSignal, match="^record 'r2' has no probe score$"):
            ragctl.decide(ragctl.parse_policy_spec("emit+probe:0.5"), ragctl.score_traces(table))
