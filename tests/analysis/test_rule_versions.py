"""The incremental cache must invalidate when any rule pack changes.

Regression for the stale-catalogue hazard: before rule versions existed,
editing a rule's logic without renaming its id left ``.vdaplint-cache``
replaying findings from the old catalogue.  The env key now embeds
``id@version`` for every enabled rule *plus* a fingerprint over every
shipped pack (including MP/FLEET, which bypass the incremental analyzer),
so a version bump anywhere forces re-analysis.
"""

from repro.analysis import IncrementalAnalyzer, catalogue_fingerprint
from repro.analysis.mp import SpawnPayloadRule
from repro.analysis.plan import BarrierExceedsLookahead, FLEET_RULE_CLASSES
from repro.analysis.rules import RULE_CLASSES


def _analyzer(rules, cache_dir=None):
    return IncrementalAnalyzer(rules, {}, cache_dir=cache_dir)


def test_env_key_embeds_rule_versions():
    rule = RULE_CLASSES[0]()
    bumped = RULE_CLASSES[0]()
    bumped.version = rule.version + 1
    assert _analyzer([rule])._env_key() != _analyzer([bumped])._env_key()


def test_catalogue_fingerprint_tracks_pack_versions(monkeypatch):
    before = catalogue_fingerprint()
    monkeypatch.setattr(SpawnPayloadRule, "version", SpawnPayloadRule.version + 1)
    assert catalogue_fingerprint() != before


def test_catalogue_fingerprint_tracks_fleet_pack(monkeypatch):
    """The FLEET pack rides the same invalidation channel as MP: a
    planner rule edit must flush warm ``--plan --cache`` runs."""
    before = catalogue_fingerprint()
    monkeypatch.setattr(
        BarrierExceedsLookahead, "version", BarrierExceedsLookahead.version + 1
    )
    assert catalogue_fingerprint() != before


def test_fleet_rules_carry_versioned_ids():
    for cls in FLEET_RULE_CLASSES:
        rule = cls()
        assert rule.id.startswith("FLEET")
        assert isinstance(rule.version, int) and rule.version >= 1


def test_pack_version_bump_invalidates_warm_cache(tmp_path, monkeypatch):
    """An MP-pack edit re-analyzes even though the enabled rules are
    unchanged -- the pack fingerprint is part of the env key."""
    source = tmp_path / "mod.py"
    source.write_text("x = 1\n", encoding="utf-8")
    cache_dir = str(tmp_path / "cache")
    rules = [RULE_CLASSES[0]()]

    cold = _analyzer(rules, cache_dir).run([str(source)])
    assert cold.analyzed == [str(source)]
    warm = _analyzer(rules, cache_dir).run([str(source)])
    assert warm.analyzed == []
    assert warm.replayed == [str(source)]

    monkeypatch.setattr(SpawnPayloadRule, "version", SpawnPayloadRule.version + 1)
    invalidated = _analyzer(rules, cache_dir).run([str(source)])
    assert invalidated.analyzed == [str(source)]
    assert invalidated.replayed == []
    assert invalidated.findings == cold.findings
