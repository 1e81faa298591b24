"""Channel primitives: station sets, feedback, transcripts, serialization."""

import copy
import operator
import pickle
import time
from itertools import combinations

import pytest

from macq import (
    COLLISION,
    SILENCE,
    TREE_SPLIT,
    DomainError,
    Feedback,
    FeedbackTag,
    GameConfig,
    GameResult,
    KnowledgeState,
    MacqError,
    NormalFormReport,
    QNode,
    QTree,
    ReportRow,
    StationSet,
    Strategy,
    Transcript,
    build_tree,
    channel,
    check_normal_form,
    claimed_bound_combinatorial,
    evaluate_query,
    exact_optimal_rounds,
    format_station_set,
    game_result_to_doc,
    generate_report,
    initial_state,
    linear_scan,
    path_count_bound,
    refine,
    run_fixed,
    scripted,
    single,
    transmitted_set,
)
from macq.channel import (
    branches,
    feedback_to_json,
    station_cap,
)
from reference_strategies import Index


def test_station_set_from_ids_dedups_and_sorts():
    s = StationSet.from_ids([3, 1, 3, 2])
    assert list(s) == [1, 2, 3]
    assert len(s) == 3


def test_station_set_rejects_nonpositive_ids():
    with pytest.raises(DomainError):
        StationSet.from_ids([0])
    with pytest.raises(DomainError):
        StationSet.from_ids([-2])
    # Beyond the station cap the id is refused before its bit is set.
    with pytest.raises(DomainError, match="MACQ_MAX_N"):
        StationSet.from_ids([1, 10**19])
    # An id that is not an integer is refused, not left to fail in the bit shift.
    for station in (2.5, "3"):
        with pytest.raises(DomainError, match="station id must be an integer"):
            StationSet.from_ids([station])


def test_from_ids_reads_the_cap_once_and_names_the_first_id_beyond_it(monkeypatch):
    reads = []
    monkeypatch.setattr(channel, "station_cap", lambda: reads.append(None) or 64)
    assert StationSet.from_ids(range(1, 17)) == StationSet.full(16)
    assert len(reads) == 2  # one for from_ids, one for full
    with pytest.raises(DomainError) as raised:
        StationSet.from_ids([1, 70, 65, 10**19])
    assert str(raised.value) == "station id must be at most 64 (raise MACQ_MAX_N for more), got 70"
    assert len(reads) == 3


def test_station_set_with_a_negative_mask_cannot_be_built():
    # Its bits never run out, so it is no set: it is refused where it is made,
    # before it can be listed, counted or intersected.
    with pytest.raises(DomainError) as raised:
        StationSet(-1)
    assert str(raised.value) == "station set has the negative mask -1"
    for use in (repr, list, format_station_set, lambda s: 0 in s, len,
                lambda s: s & StationSet(3)):
        with pytest.raises(DomainError, match="negative mask -6"):
            use(StationSet(-6))


def test_station_set_mask_must_be_an_integer():
    for mask in (2.5, "3", None):
        with pytest.raises(DomainError) as raised:
            StationSet(mask)
        assert str(raised.value) == f"station set mask must be an integer, got {mask!r}"
    # A bool or an __index__ type (a numpy integer, say) converts to an int.
    assert StationSet(True) == StationSet(1) and StationSet(True).mask.__class__ is int
    live = StationSet(Index(5))
    assert live == StationSet.from_ids([1, 3])
    cfg = GameConfig(4, 2)
    assert run_fixed(TREE_SPLIT, cfg, live) == run_fixed(TREE_SPLIT, cfg, StationSet(5))


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
            assert (sa == sb) == (a == b)
    # A foreign operand is refused by Python, not read for a mask it lacks.
    for other in (3, {1}, frozenset({1})):
        for op in (operator.and_, operator.or_, operator.sub):
            with pytest.raises(TypeError):
                op(StationSet.from_ids([1]), other)


def test_station_set_singleton_and_full(monkeypatch):
    assert tuple(StationSet.from_ids((4,))) == (4,)
    assert tuple(StationSet.full(3)) == (1, 2, 3)
    assert tuple(StationSet.full(0)) == ()
    # Integer types convert, as in GameConfig; a float size is refused.
    assert tuple(StationSet.from_ids([Index(3), True])) == (1, 3)
    assert StationSet.full(Index(2)) == StationSet.full(2)
    with pytest.raises(DomainError):
        StationSet.full(-1)
    with pytest.raises(DomainError, match="set size must be an integer"):
        StationSet.full(2.5)
    # The size is checked against the cap before the mask is built, so a huge
    # one allocates nothing; a raised MACQ_MAX_N admits more.
    cap = station_cap()
    assert len(StationSet.full(cap)) == cap
    for n in (cap + 1, 10**10):
        with pytest.raises(DomainError, match=f"set size must be at most {cap} .*, got {n}$"):
            StationSet.full(n)
    monkeypatch.setenv("MACQ_MAX_N", str(cap + 100))
    assert len(StationSet.full(cap + 100)) == cap + 100
    with pytest.raises(DomainError, match=f"at most {cap + 100} "):
        StationSet.full(cap + 101)


def test_format_station_set():
    assert format_station_set(StationSet()) == "{}"
    assert format_station_set(StationSet.from_ids([3, 1])) == "{1,3}"



def test_game_config_validation():
    GameConfig(5, 2)  # accepted
    # Integer types convert to plain ints; floats and strings are refused.
    config = GameConfig(Index(4), True)
    assert config == GameConfig(4, 1) and type(config.n) is int and type(config.d) is int
    for n, d in ((4.0, 2), (4, 2.0), ("4", 2), (None, 1)):
        with pytest.raises(DomainError, match="must be an integer"):
            GameConfig(n, d)
    with pytest.raises(DomainError):
        GameConfig(0, 1)
    with pytest.raises(DomainError):
        GameConfig(3, 0)
    with pytest.raises(DomainError):
        GameConfig(3, 4)
    # A live set must be a StationSet, not any iterable of ids.
    for live in ({1, 2}, [1, 2], frozenset({1, 2})):
        with pytest.raises(DomainError) as raised:
            GameConfig(4, 2).check_live_set(live)
        assert str(raised.value) == f"live set must be a StationSet, got {live!r}"


def test_station_cap_env_override(monkeypatch):
    monkeypatch.delenv("MACQ_MAX_N", raising=False)
    assert station_cap() == 64
    with pytest.raises(DomainError):
        GameConfig(65, 1)
    monkeypatch.setenv("MACQ_MAX_N", "100")
    assert station_cap() == 100
    GameConfig(100, 1)  # no longer rejected
    # int() would read "1_00" and " +100" as 100, and the full-width digits as 128.
    for raw in ("not a number", "1_00", " +100", "\uff11\uff12\uff18", "-\uff11"):
        monkeypatch.setenv("MACQ_MAX_N", raw)
        with pytest.raises(DomainError, match="must be an integer"):
            station_cap()
    monkeypatch.setenv("MACQ_MAX_N", "0")
    with pytest.raises(DomainError, match="must be at least 1"):
        station_cap()


@pytest.mark.parametrize("make, name, low", [
    (lambda v: GameConfig(v, 1), "n", 1),
    (lambda v: StationSet.from_ids([1, v]), "station id", 1),
    (StationSet.full, "set size", 0),
])
def test_station_cap_rule_is_one_rule(monkeypatch, make, name, low):
    # n, every station id and every set size are bounded by low and the cap,
    # worded alike; a value beyond the cap allocates nothing.
    monkeypatch.delenv("MACQ_MAX_N", raising=False)
    with pytest.raises(DomainError) as raised:
        make(low - 1)
    assert str(raised.value) == f"{name} must be at least {low}, got {low - 1}"
    with pytest.raises(DomainError) as raised:
        make(65)
    assert str(raised.value) == f"{name} must be at most 64 (raise MACQ_MAX_N for more), got 65"
    monkeypatch.setenv("MACQ_MAX_N", "100")
    make(65)
    with pytest.raises(DomainError, match=f"^{name} must be at most 100 .*, got {10**19}$"):
        make(10**19)
    # Past 40 digits a value is echoed as its first 40 and its number of
    # digits, which str() would refuse past sys.get_int_max_str_digits().
    shown = rf"{'9' * 40}\.\.\. \(5000 digits\)$"
    with pytest.raises(DomainError, match=f"^{name} must be at most 100 .*, got {shown}"):
        make(10**5000 - 1)
    with pytest.raises(DomainError, match=f"^{name} must be at least {low}, got -{shown}"):
        make(1 - 10**5000)


@pytest.mark.parametrize("make, name, low", [
    (lambda mp, v: generate_report(v, 1), "n_max", 2),
    (lambda mp, v: generate_report(2, v), "d_max", 1),
    (lambda mp, v: path_count_bound(3, v), "d", 1),
    (lambda mp, v: single(v), "station id", 1),
    (lambda mp, v: mp.setenv("MACQ_MAX_N", str(v)) or station_cap(), "MACQ_MAX_N", 1),
], ids=["n_max", "d_max", "path_count_bound", "single", "MACQ_MAX_N"])
def test_lower_bound_rule_is_one_rule(monkeypatch, make, name, low):
    # Every "at least" rule is one rule, worded alike, with the value refused.
    with pytest.raises(DomainError) as raised:
        make(monkeypatch, low - 1)
    assert str(raised.value) == f"{name} must be at least {low}, got {low - 1}"


LONG_TEXT = "9" * 100_000
WIDE_SET = StationSet((1 << 10**5) - 1)  # stations 1..100000


def _under_raised_cap(make):
    """``make()`` with ``MACQ_MAX_N`` at 20000."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("MACQ_MAX_N", "20000")
        return make()


def _querying(action, name="s"):
    """A strategy named ``name`` whose every query is ``action``."""
    return Strategy(name, lambda config, state: action, lambda config: 0, lambda *step: 0)


@pytest.mark.parametrize("refuse, limit", [
    (lambda: GameConfig(LONG_TEXT, 2), 160),
    (lambda: Feedback(LONG_TEXT), 160),
    (lambda: branches(initial_state(GameConfig(4, 2)), LONG_TEXT), 160),
    (lambda: refine(initial_state(GameConfig(4, 2)), StationSet(1), LONG_TEXT), 160),
    (lambda: claimed_bound_combinatorial(4, 2, LONG_TEXT), 160),
    (lambda: exact_optimal_rounds(GameConfig(4, 2), cap=LONG_TEXT), 160),
    (lambda: run_fixed(_querying(LONG_TEXT), GameConfig(4, 2), StationSet(3)), 160),
    (lambda: GameConfig(4, 2).check_live_set(WIDE_SET), 160),
    (lambda: run_fixed(_querying(WIDE_SET), GameConfig(4, 2), StationSet(3)), 160),
    (lambda: refine(initial_state(GameConfig(4, 2)), WIDE_SET, single(3)), 160),
    (lambda: refine(initial_state(GameConfig(4, 2)), StationSet(15), single(10**5000)), 160),
    (lambda: StationSet(-(10**5000)), 160),
    (lambda: build_tree(_querying(None, LONG_TEXT), GameConfig(2, 1)), 160),
    (lambda: GameConfig(4, 2).check_live_set(list(range(100_000))), 160),
    (lambda: branches(tuple(range(100_000)), StationSet(1)), 160),
    (lambda: _under_raised_cap(lambda: initial_state(GameConfig(20000, 10000))), 160),
    (lambda: build_tree(scripted("mute", []), GameConfig(60, 59)), 200),
], ids=["integer", "feedback-tag", "branches-query", "refine-feedback", "growth-factor",
        "oracle-cap", "query-type", "live-set", "query-beyond-n", "inconsistent",
        "inconsistent-sender", "negative-mask", "ambiguous-leaf-name", "live-set-type",
        "branches-state", "enumeration-budget", "ambiguous-leaf-sets"])
def test_every_refusal_echoes_a_long_value_short(refuse, limit):
    # Each refusal echoes the refused value through channel._shown: a text
    # past 40 characters or a set past 40 characters of listing is cut short,
    # and a wide set is not walked to its end.  A message that echoes two
    # sets, as an ambiguous leaf does, may take 200 characters; one echo, 160.
    started = time.perf_counter()
    with pytest.raises(MacqError) as raised:
        refuse()
    assert time.perf_counter() - started < 0.1
    assert len(str(raised.value)) < limit


def test_a_refused_set_is_listed_while_it_fits():
    with pytest.raises(DomainError) as raised:
        GameConfig(4, 2).check_live_set(StationSet.from_ids([1, 5]))
    assert str(raised.value) == "live set {1,5} exceeds n=4"
    with pytest.raises(DomainError) as raised:
        GameConfig(4, 2).check_live_set(WIDE_SET)
    assert str(raised.value) == ("live set {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,...} "
                                 "(100000 stations) exceeds n=4")
    # The refusal's cut is not format_station_set's, which lists every station.
    assert format_station_set(StationSet.full(64)) == "{" + ",".join(map(str, range(1, 65))) + "}"


def test_feedback_validation():
    assert single(3).station == 3
    assert single(3).is_single
    assert not SILENCE.is_single
    # A single equals (and hashes as) a directly built one.
    assert single(3) == Feedback(FeedbackTag.SINGLE, 3)
    assert hash(single(3)) == hash(Feedback(FeedbackTag.SINGLE, 3))
    # A refused station is refused every time.
    for station in (0, -1, 0, -1):
        with pytest.raises(DomainError):
            single(station)
    # A station must be an integer: a float (even one equal to an accepted
    # int) or a string is refused; an integer type converts to a plain int.
    assert single(999).station == 999
    for station in (2.5, 999.0, "3"):
        with pytest.raises(DomainError, match="station id must be an integer"):
            single(station)
        with pytest.raises(DomainError, match="station id must be an integer"):
            Feedback(FeedbackTag.SINGLE, station)
    for station in (True, Index(7)):
        assert single(station.__index__()) == single(station)
        assert type(single(station).station) is int
        assert type(Feedback(FeedbackTag.SINGLE, station).station) is int
    with pytest.raises(DomainError, match="^single feedback needs a station id$"):
        Feedback(FeedbackTag.SINGLE)
    with pytest.raises(DomainError):
        Feedback(FeedbackTag.SINGLE, 0)
    with pytest.raises(DomainError):
        Feedback(FeedbackTag.SILENCE, 1)
    with pytest.raises(DomainError):
        Feedback(FeedbackTag.COLLISION, 2)
    # A tag must be a FeedbackTag; its value string is not one.
    for tag, station in (("silence", None), ("single", 3), ("collision", None), (None, None)):
        with pytest.raises(DomainError) as raised:
            Feedback(tag, station)
        assert str(raised.value) == f"feedback tag must be a FeedbackTag, got {tag!r}"


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
    assert len(t0.rounds) == 0 and len(t1.rounds) == 1 and len(t2.rounds) == 2
    assert t1.rounds[0] == (StationSet.from_ids([1, 2]), COLLISION)
    assert transmitted_set(t2) == StationSet.from_ids([1])
    assert transmitted_set(t1) == StationSet()


def test_transmitted_set_collects_distinct_singles(monkeypatch):
    cfg = GameConfig(5, 3)
    t = Transcript(cfg)
    t = t.extend(StationSet.from_ids([1]), single(1))
    t = t.extend(StationSet.from_ids([2, 3]), COLLISION)
    t = t.extend(StationSet.from_ids([2]), single(2))
    t = t.extend(StationSet.from_ids([1]), single(1))
    assert transmitted_set(t) == StationSet.from_ids([1, 2])
    # A sender's bit is set by StationSet.from_ids, which refuses one beyond the cap.
    monkeypatch.setenv("MACQ_MAX_N", "8")
    with pytest.raises(DomainError, match="at most 8 .*got 9"):
        transmitted_set(t.extend(StationSet.from_ids([3]), single(9)))


def test_feedback_json_spelling():
    assert feedback_to_json(SILENCE) == "silence"
    assert feedback_to_json(COLLISION) == "collision"
    assert feedback_to_json(single(3)) == {"single": 3}


def test_game_result_doc_lists_every_round():
    cfg = GameConfig(4, 2)
    t = Transcript(cfg)
    t = t.extend(StationSet.from_ids([1, 2, 3, 4]), COLLISION)
    t = t.extend(StationSet.from_ids([1, 2]), single(1))
    t = t.extend(StationSet.from_ids([3, 4]), single(3))
    live = StationSet.from_ids([1, 3])
    doc = game_result_to_doc(GameResult(t, True, live))
    assert doc == {
        "n": 4,
        "d": 2,
        "live": [1, 3],
        "rounds": [
            {"query": [1, 2, 3, 4], "feedback": "collision"},
            {"query": [1, 2], "feedback": {"single": 1}},
            {"query": [3, 4], "feedback": {"single": 3}},
        ],
        "rounds_used": 3,
        "completed": True,
        "witness_live": [1, 3],
    }
    assert list(doc) == ["n", "d", "live", "rounds", "rounds_used", "completed", "witness_live"]


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
        for mask in range(1 << n):
            assert branches(KnowledgeState((), 0), StationSet(mask)) == []
        for d in range(1, n + 1):
            for state in _positions_near_the_start(n, d):
                for mask in range(1 << n):
                    query = StationSet(mask)
                    children = branches(state, query)
                    feedbacks = [feedback for feedback, _ in children]
                    # Silence, then collision, then singles by sender.
                    order = {SILENCE: -2, COLLISION: -1}
                    assert feedbacks == sorted(set(feedbacks), key=lambda fb: order.get(fb, fb.station))
                    assert sorted(m for _, child in children for m in child.family) == sorted(state.family)
                    for feedback, child in children:
                        assert child.family
                        # Members keep the parent's order.
                        assert list(child.family) == [m for m in state.family if m in child.family]
                        assert all(evaluate_query(query, StationSet(m)) == feedback for m in child.family)
                        sender = 1 << feedback.station - 1 if feedback.is_single else 0
                        assert child.revealed == state.revealed | sender
                        assert refine(state, query, feedback) == child


def test_value_types_are_immutable_values(monkeypatch):
    # Each of the package's value types, with its fields in order.
    cfg = GameConfig(3, 2)
    live = StationSet.from_ids([1, 3])
    leaf = QNode(None, {}, live)
    root = QNode(StationSet.from_ids([1]), {single(1): leaf}, None)
    fields = {
        StationSet: ("mask",),
        GameConfig: ("n", "d"),
        Feedback: ("tag", "station"),
        KnowledgeState: ("family", "revealed"),
        Transcript: ("config", "rounds"),
        Strategy: ("name", "query", "start", "step"),
        GameResult: ("transcript", "completed", "witness_live"),
        QNode: ("query", "children", "resolved_live"),
        QTree: ("config", "root"),
        NormalFormReport: ("max_depth", "leaf_count", "black_per_path",
                           "repeated_transmitter_paths", "property_holds"),
        ReportRow: ("n", "d", "oracle_opt", "tree_worst", "linear_worst", "info_lb",
                    "claimed_factorial", "claimed_power", "claimed_analytic", "flags"),
    }
    values = [
        live, cfg, single(2), initial_state(cfg), Transcript(cfg, ((live, COLLISION),)),
        Strategy("replay", linear_scan, Transcript, Transcript.extend), run_fixed(TREE_SPLIT, cfg, live),
        root, QTree(cfg, root), check_normal_form(build_tree(TREE_SPLIT, cfg)), generate_report(2, 1)[0],
    ]
    assert sorted(type(v).__name__ for v in values) == sorted(t.__name__ for t in fields)
    for value in values:
        kind, names = type(value), fields[type(value)]
        if kind is not StationSet:
            shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
            assert repr(value) == f"{kind.__name__}({shown})"
        twin = kind(*(getattr(value, name) for name in names))
        assert twin == value and twin is not value
        assert kind(**{name: getattr(value, name) for name in names}) == value
        with pytest.raises(TypeError):
            kind(*(getattr(value, name) for name in names), unknown=None)
        if kind is not StationSet:  # a set's one field has a default
            with pytest.raises(TypeError, match=f"{kind.__name__}.__init__"):
                kind(**{name: getattr(value, name) for name in names[1:]})
        if kind in (QNode, QTree):  # a node holds its children in a dict
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(twin) == hash(value)
        with pytest.raises(AttributeError):
            setattr(value, names[0], getattr(value, names[-1]))
        with pytest.raises(AttributeError):
            delattr(value, names[0])
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
    assert repr(live) == "StationSet({1, 3})"
    # Sets have no order, as no other value type has.
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(StationSet(1), StationSet(2))
    with pytest.raises(TypeError):  # a node states all three fields
        QNode()
    # Frozen writes the constructor of every type that only stores its fields;
    # the three that check their arguments, and Transcript, write their own.
    written = {kind for kind in fields if kind.__init__.__code__.co_filename.endswith(".py")}
    assert written == {StationSet, GameConfig, Feedback, Transcript}
    assert all(kind.__init__.__module__ == kind.__module__ for kind in fields)
    assert StationSet().mask == 0 and Transcript(cfg).rounds == ()
    with pytest.raises(TypeError):  # no field of a strategy has a default
        Strategy("s", linear_scan)
    # A copy or a load restores the fields; it does not rerun the checks of
    # __init__, so a config made under a raised cap loads under the default.
    monkeypatch.setenv("MACQ_MAX_N", "128")
    wide = GameConfig(100, 2)
    saved = pickle.dumps(wide)
    monkeypatch.delenv("MACQ_MAX_N")
    assert pickle.loads(saved) == wide and copy.deepcopy(wide) == wide


def test_frozen_refuses_defaults_it_cannot_use():
    # A type defaults a field in its own __init__; Frozen takes no class
    # keyword, so even a well-formed trailing default is refused.
    from macq.channel import Frozen

    for slots, defaults in ((("a", "b"), {"b": 1}), (("rounds",), {"rouds": ()}),
                            (("a", "b", "c"), {"b": 1}), (("x",), {"x": 0})):
        with pytest.raises(TypeError, match="unexpected keyword argument 'defaults'"):
            class Defaulted(Frozen, defaults=defaults):
                __slots__ = slots
    # The compiled __init__ takes every field, required, by position or keyword.
    class Pair(Frozen):
        __slots__ = ("a", "b")

    assert Pair(1, 2) == Pair(1, b=2) == Pair(b=2, a=1)
    with pytest.raises(TypeError):
        Pair(1)
