"""Strategy behavior tested directly through next_action on hand-built transcripts."""

import pytest

from macq import (
    COLLISION,
    SILENCE,
    MacqError,
    GameConfig,
    StationSet,
    Transcript,
    linear_scan,
    scripted,
    single,
    tree_split,
)

S = StationSet.from_ids


def test_linear_scan_probes_singletons_in_order():
    cfg = GameConfig(4, 1)
    t = Transcript(cfg)
    assert linear_scan(cfg, t) == S([1])
    t = t.extend(S([1]), SILENCE)
    assert linear_scan(cfg, t) == S([2])
    t = t.extend(S([2]), SILENCE)
    assert linear_scan(cfg, t) == S([3])
    t = t.extend(S([3]), single(3))
    assert linear_scan(cfg, t) is None


def test_linear_scan_stops_after_d_singles():
    cfg = GameConfig(4, 2)
    t = Transcript(cfg)
    t = t.extend(S([1]), single(1))
    assert linear_scan(cfg, t) == S([2])
    t = t.extend(S([2]), single(2))
    assert linear_scan(cfg, t) is None


def test_linear_scan_stops_after_last_singleton():
    cfg = GameConfig(3, 2)
    t = Transcript(cfg)
    for i in (1, 2, 3):
        t = t.extend(S([i]), SILENCE)
    assert linear_scan(cfg, t) is None


def test_tree_split_opens_with_full_probe():
    cfg = GameConfig(4, 2)
    assert tree_split(cfg, Transcript(cfg)) == S([1, 2, 3, 4])


def test_tree_split_splits_collision_left_first():
    cfg = GameConfig(4, 2)
    t = Transcript(cfg).extend(S([1, 2, 3, 4]), COLLISION)
    assert tree_split(cfg, t) == S([1, 2])


def test_tree_split_resolves_pair_in_three_rounds():
    cfg = GameConfig(4, 2)
    t = Transcript(cfg)
    t = t.extend(S([1, 2, 3, 4]), COLLISION)
    t = t.extend(S([1, 2]), single(1))
    assert tree_split(cfg, t) == S([3, 4])
    t = t.extend(S([3, 4]), single(3))
    assert tree_split(cfg, t) is None


def test_tree_split_odd_interval_split():
    # [1..5] splits at mid = 3 into [1..2] and [3..5].
    cfg = GameConfig(5, 2)
    t = Transcript(cfg).extend(S([1, 2, 3, 4, 5]), COLLISION)
    assert tree_split(cfg, t) == S([1, 2])
    t = t.extend(S([1, 2]), SILENCE)
    assert tree_split(cfg, t) == S([3, 4, 5])


def test_tree_split_rejects_foreign_transcript():
    cfg = GameConfig(4, 2)
    t = Transcript(cfg).extend(S([2]), SILENCE)
    with pytest.raises(ValueError) as err:
        tree_split(cfg, t)
    assert isinstance(err.value, MacqError)


def test_tree_split_rejects_rounds_past_exhausted_stack():
    cfg = GameConfig(2, 2)
    t = Transcript(cfg)
    t = t.extend(S([1, 2]), COLLISION)
    t = t.extend(S([1]), single(1))
    t = t.extend(S([2]), SILENCE)  # discharges the last interval
    t = t.extend(S([1]), SILENCE)  # impossible extra round
    with pytest.raises(ValueError) as err:
        tree_split(cfg, t)
    assert isinstance(err.value, MacqError)


def test_scripted_plays_list_then_stops():
    cfg = GameConfig(3, 1)
    strat = scripted("fixed", [S([1, 2]), S([3])])
    t = Transcript(cfg)
    assert strat.next_action(cfg, t) == S([1, 2])
    t = t.extend(S([1, 2]), COLLISION)
    assert strat.next_action(cfg, t) == S([3])
    t = t.extend(S([3]), SILENCE)
    assert strat.next_action(cfg, t) is None
    assert strat.name == "fixed"
