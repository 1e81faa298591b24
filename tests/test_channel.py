"""Channel primitives: station sets, feedback, transcripts, serialization."""

from itertools import combinations

import pytest

from macq import (
    COLLISION,
    SILENCE,
    DomainError,
    Feedback,
    FeedbackTag,
    GameConfig,
    StationSet,
    Transcript,
    evaluate_query,
    format_station_set,
    initial_state,
    refine,
    single,
    transcript_from_doc,
    transcript_to_doc,
    transmitted_set,
)
from macq.channel import (
    branches,
    feedback_from_json,
    feedback_to_json,
    feedback_order,
    station_cap,
)


def test_station_set_from_ids_dedups_and_sorts():
    s = StationSet.from_ids([3, 1, 3, 2])
    assert s.members == (1, 2, 3)
    assert list(s) == [1, 2, 3]
    assert len(s) == 3


def test_station_set_rejects_nonpositive_ids():
    with pytest.raises(DomainError):
        StationSet.from_ids([0])
    with pytest.raises(DomainError):
        StationSet.from_ids([-2])


def test_station_set_semantics_match_frozenset():
    # Exhaustive check of the bitmask ops against plain Python sets.
    universe = range(1, 6)
    all_subsets = [frozenset(c) for r in range(6) for c in combinations(universe, r)]
    for a in all_subsets:
        sa = StationSet.from_ids(a)
        assert set(sa) == set(a)
        assert len(sa) == len(a)
        assert bool(sa) == bool(a)
        for i in universe:
            assert (i in sa) == (i in a)
        for b in all_subsets:
            sb = StationSet.from_ids(b)
            assert set(sa & sb) == a & b
            assert set(sa | sb) == a | b
            assert set(sa - sb) == a - b
            assert sa.issubset(sb) == (a <= b)
            assert sa.isdisjoint(sb) == a.isdisjoint(b)
            assert (sa == sb) == (a == b)


def test_station_set_singleton_and_full():
    assert StationSet.singleton(4).members == (4,)
    assert StationSet.full(3).members == (1, 2, 3)
    assert StationSet.full(0).members == ()


def test_format_station_set():
    assert format_station_set(StationSet()) == "{}"
    assert format_station_set(StationSet.from_ids([3, 1])) == "{1,3}"


def test_game_config_validation():
    cfg = GameConfig(5, 2)
    assert cfg.all_stations == StationSet.full(5)
    with pytest.raises(DomainError):
        GameConfig(0, 1)
    with pytest.raises(DomainError):
        GameConfig(3, 0)
    with pytest.raises(DomainError):
        GameConfig(3, 4)


def test_station_cap_env_override(monkeypatch):
    monkeypatch.delenv("MACQ_MAX_N", raising=False)
    assert station_cap() == 64
    with pytest.raises(DomainError):
        GameConfig(65, 1)
    monkeypatch.setenv("MACQ_MAX_N", "100")
    assert station_cap() == 100
    GameConfig(100, 1)  # no longer rejected
    monkeypatch.setenv("MACQ_MAX_N", "not a number")
    with pytest.raises(DomainError):
        station_cap()
    monkeypatch.setenv("MACQ_MAX_N", "0")
    with pytest.raises(DomainError, match="must be positive"):
        station_cap()


def test_feedback_validation():
    assert single(3).station == 3
    assert single(3).is_single
    assert not SILENCE.is_single
    with pytest.raises(DomainError):
        Feedback(FeedbackTag.SINGLE)
    with pytest.raises(DomainError):
        Feedback(FeedbackTag.SINGLE, 0)
    with pytest.raises(DomainError):
        Feedback(FeedbackTag.SILENCE, 1)
    with pytest.raises(DomainError):
        Feedback(FeedbackTag.COLLISION, 2)


def test_feedback_order_sorts_silence_collision_then_singles():
    fbs = [single(2), COLLISION, single(1), SILENCE, single(5)]
    assert sorted(fbs, key=feedback_order) == [
        SILENCE,
        COLLISION,
        single(1),
        single(2),
        single(5),
    ]


def test_evaluate_query_exhaustive_small():
    # Oracle: count the overlap with plain sets and apply the 0/1/many rule.
    for n in range(1, 6):
        subsets = [frozenset(c) for r in range(n + 1) for c in combinations(range(1, n + 1), r)]
        for query in subsets:
            for live in subsets:
                got = evaluate_query(StationSet.from_ids(query), StationSet.from_ids(live))
                overlap = sorted(query & live)
                if len(overlap) == 0:
                    assert got == SILENCE
                elif len(overlap) == 1:
                    assert got == single(overlap[0])
                else:
                    assert got == COLLISION


def test_empty_query_is_silence():
    assert evaluate_query(StationSet(), StationSet.from_ids([1, 2])) == SILENCE


def test_transcript_extend_is_persistent():
    cfg = GameConfig(4, 2)
    t0 = Transcript(cfg)
    t1 = t0.extend(StationSet.from_ids([1, 2]), COLLISION)
    t2 = t1.extend(StationSet.from_ids([1]), single(1))
    assert len(t0) == 0 and len(t1) == 1 and len(t2) == 2
    assert t1.rounds[0] == (StationSet.from_ids([1, 2]), COLLISION)
    assert transmitted_set(t2) == StationSet.from_ids([1])
    assert transmitted_set(t1) == StationSet()


def test_transmitted_set_collects_distinct_singles():
    cfg = GameConfig(5, 3)
    t = Transcript(cfg)
    t = t.extend(StationSet.from_ids([1]), single(1))
    t = t.extend(StationSet.from_ids([2, 3]), COLLISION)
    t = t.extend(StationSet.from_ids([2]), single(2))
    t = t.extend(StationSet.from_ids([1]), single(1))
    assert transmitted_set(t) == StationSet.from_ids([1, 2])


def test_feedback_json_round_trip():
    for fb in [SILENCE, COLLISION, single(1), single(17)]:
        assert feedback_from_json(feedback_to_json(fb)) == fb
    assert feedback_to_json(SILENCE) == "silence"
    assert feedback_to_json(COLLISION) == "collision"
    assert feedback_to_json(single(3)) == {"single": 3}
    with pytest.raises(DomainError):
        feedback_from_json("mystery")
    with pytest.raises(DomainError):
        feedback_from_json({"pair": 3})


def test_transcript_doc_round_trip():
    cfg = GameConfig(4, 2)
    t = Transcript(cfg)
    t = t.extend(StationSet.from_ids([1, 2, 3, 4]), COLLISION)
    t = t.extend(StationSet.from_ids([1, 2]), single(1))
    t = t.extend(StationSet.from_ids([3, 4]), single(3))
    live = StationSet.from_ids([1, 3])
    doc = transcript_to_doc(t, live)
    assert doc == {
        "n": 4,
        "d": 2,
        "live": [1, 3],
        "rounds": [
            {"query": [1, 2, 3, 4], "feedback": "collision"},
            {"query": [1, 2], "feedback": {"single": 1}},
            {"query": [3, 4], "feedback": {"single": 3}},
        ],
    }
    back_t, back_live = transcript_from_doc(doc)
    assert back_t == t
    assert back_live == live


def test_transcript_from_doc_rejects_malformed():
    with pytest.raises(DomainError):
        transcript_from_doc({"n": 2, "d": 1, "live": [1]})  # no rounds
    with pytest.raises(DomainError):
        transcript_from_doc({"n": 2, "d": 1, "live": [1], "rounds": "oops"})


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "d": 1, "live": [1], "rounds": [{"feedback": "silence"}]},  # no query
        {"n": 2, "d": 1, "live": [1], "rounds": [[1]]},  # round is not a dict
        {"n": "x", "d": 1, "live": [1], "rounds": []},
        {"n": 2, "d": 1, "live": [1], "rounds": [{"query": [1], "feedback": {"single": "a"}}]},
        # A single from a station beyond n, or from one outside the query.
        {"n": 4, "d": 1, "live": [1], "rounds": [{"query": [1], "feedback": {"single": 9}}]},
        {"n": 4, "d": 2, "live": [1, 2], "rounds": [{"query": [1], "feedback": {"single": 2}}]},
        # Non-integers, which int() would truncate or coerce.
        {"n": 4.7, "d": 1, "live": [1], "rounds": []},
        {"n": 4, "d": 1, "live": [2], "rounds": [{"query": [1, 2], "feedback": {"single": 2.5}}]},
        {"n": "4", "d": 1, "live": [1], "rounds": []},
        {"n": 4, "d": True, "live": [1], "rounds": []},
        {"n": 4, "d": 1, "live": [True], "rounds": []},
        {"n": 4, "d": 1, "live": [1], "rounds": [{"query": [1.0], "feedback": "silence"}]},
        # Self-contradicting: a live set of the wrong size, or feedback the
        # live set cannot draw.
        {"n": 4, "d": 2, "live": [1], "rounds": [{"query": [1, 2], "feedback": "silence"}]},
        {"n": 4, "d": 2, "live": [1, 2, 3], "rounds": []},
        {"n": 4, "d": 2, "live": [1, 3], "rounds": [{"query": [1, 2], "feedback": "silence"}]},
        {"n": 4, "d": 2, "live": [1, 3], "rounds": [{"query": [1, 3], "feedback": {"single": 1}}]},
        # Ids beyond n, in the live set or in a query.
        {"n": 4, "d": 2, "live": [1, 9], "rounds": []},
        {"n": 4, "d": 1, "live": [1], "rounds": [{"query": [5], "feedback": "silence"}]},
    ],
)
def test_transcript_from_doc_raises_only_domain_errors(doc):
    with pytest.raises(DomainError):
        transcript_from_doc(doc)


def _positions_near_the_start(n, d):
    """The initial state and every state one refine away from it."""
    start = initial_state(GameConfig(n, d))
    positions = {start}
    for mask in range(1 << n):
        query = StationSet(mask)
        for live in start.family:
            positions.add(refine(start, query, evaluate_query(query, StationSet(live))))
    return positions


def test_branches_partition_the_family_in_feedback_order():
    for n in range(1, 6):
        for d in range(1, n + 1):
            for state in _positions_near_the_start(n, d):
                for mask in range(1 << n):
                    query = StationSet(mask)
                    children = branches(state, query)
                    feedbacks = [feedback for feedback, _ in children]
                    assert feedbacks == sorted(set(feedbacks), key=feedback_order)
                    assert sorted(m for _, child in children for m in child.family) == sorted(state.family)
                    for feedback, child in children:
                        assert child.config == state.config and child.family
                        # Members keep the parent's order.
                        assert list(child.family) == [m for m in state.family if m in child.family]
                        assert all(evaluate_query(query, StationSet(m)) == feedback for m in child.family)
                        sender = 1 << feedback.station - 1 if feedback.is_single else 0
                        assert child.revealed == state.revealed | sender
                        assert refine(state, query, feedback) == child
