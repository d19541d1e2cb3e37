"""Hit/miss behaviour of the content-keyed result cache."""

from __future__ import annotations

import json

import pytest

from repro.runner import CellResult, ExperimentSpec, FabricCell, ResultCache

TINY = FabricCell(junction_rows=4, junction_cols=4)


def _spec(**overrides) -> ExperimentSpec:
    defaults = dict(circuit="[[5,1,3]]", num_seeds=2, fabric=TINY)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def _result() -> CellResult:
    return CellResult(circuit="[[5,1,3]]", mapper="qspr", placer="mvfb", latency=612.0)


@pytest.fixture
def reregistered_pmd():
    """Registers "rekey-pmd" through the yielded function; unregisters it after."""
    from repro.pipeline.technologies import TECHNOLOGIES
    from repro.technology import TechnologyParams

    def register(**params):
        TECHNOLOGIES.register("rekey-pmd", TechnologyParams(**params), overwrite=True)

    yield register
    TECHNOLOGIES.unregister("rekey-pmd")


class TestTechnologyKeys:
    def test_a_reregistered_technology_name_keys_other_results(
        self, tmp_path, reregistered_pmd
    ):
        # A technology enters the key by its parameters, so one name cannot
        # stand for two PMDs: the second registration misses the first's
        # cached result, which a fresh mapping would contradict.
        from repro.runner import execute_cell

        reregistered_pmd(turn_delay=3.0)
        spec = ExperimentSpec("[[9,1,3]]", placer="center", technology="rekey-pmd")
        cache = ResultCache(tmp_path / "cache")
        first_key = spec.cache_key()
        first = execute_cell(spec)
        cache.store(spec, first)
        assert cache.load(spec).latency == first.latency == 1085
        reregistered_pmd(turn_delay=30.0)
        assert spec.cache_key() != first_key
        assert cache.load(spec) is None
        assert execute_cell(spec).latency == 1948


#: Three spellings of the paper PMD at capacity 1.
CAP1_SPELLINGS = (
    dict(channel_capacity=1),
    dict(technology="cap-1"),
    dict(technology="cap-1", channel_capacity=1),
)


class TestPmdKeys:
    def test_spellings_of_one_pmd_share_one_key(self):
        specs = [ExperimentSpec("[[9,1,3]]", placer="center", **s) for s in CAP1_SPELLINGS]
        assert len({spec.pmd() for spec in specs}) == 1
        assert len({spec.cache_key() for spec in specs}) == 1
        assert ExperimentSpec("[[9,1,3]]", placer="center").cache_key() != specs[0].cache_key()

    @pytest.mark.parametrize("mapped", range(len(CAP1_SPELLINGS)))
    def test_a_served_record_reports_the_request(self, tmp_path, mapped):
        # The measured columns come from the one mapped job; the spec
        # columns from each request, so each keeps its own label.
        from repro.runner import execute_cell

        specs = [ExperimentSpec("[[9,1,3]]", placer="center", **s) for s in CAP1_SPELLINGS]
        cache = ResultCache(tmp_path / "cache")
        first = execute_cell(specs[mapped])
        assert first.latency == 1550.0
        cache.store(specs[mapped], first)
        for spec in specs:
            hit = cache.load(spec)
            assert hit.from_cache and hit.latency == first.latency
            assert hit.events_processed == first.events_processed
            assert (hit.technology, hit.channel_capacity, hit.config_label) == (
                spec.technology, spec.channel_capacity, spec.config_label()
            )
        assert len(cache) == 1


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        assert cache.load(spec) is None
        cache.store(spec, _result())
        hit = cache.load(spec)
        assert hit is not None
        assert hit.latency == 612.0
        assert hit.from_cache is True
        assert len(cache) == 1

    def test_different_spec_still_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.store(_spec(), _result())
        assert cache.load(_spec(num_seeds=3)) is None
        assert cache.load(_spec(random_seed=1)) is None

    def test_normalised_specs_share_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        stored = _spec(mapper="quale", placer="mvfb", num_seeds=5)
        cache.store(stored, CellResult(circuit="[[5,1,3]]", mapper="quale", latency=900.0))
        equivalent = _spec(mapper="quale", placer="center", num_seeds=1)
        hit = cache.load(equivalent)
        assert hit is not None and hit.latency == 900.0

    def test_corrupted_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        cache.store(spec, _result())
        (path,) = (tmp_path / "cache").glob("*.json")
        path.write_text("{not json")
        assert cache.load(spec) is None

    @pytest.mark.parametrize("content", [b"[]", b'"x"', b"1", b"null", b"\xff\xfe{"])
    def test_a_file_that_is_not_a_record_is_a_miss(self, tmp_path, content):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        cache.store(spec, _result())
        (path,) = (tmp_path / "cache").glob("*.json")
        path.write_bytes(content)
        assert cache.load(spec) is None

    @pytest.mark.parametrize("fields", [[], {"nope": 1}], ids=["list", "no-required-field"])
    def test_a_malformed_result_is_a_miss(self, tmp_path, fields):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        cache.store(spec, _result())
        (path,) = (tmp_path / "cache").glob("*.json")
        record = json.loads(path.read_text())
        record["result"] = fields
        path.write_text(json.dumps(record))
        assert cache.load(spec) is None

    @pytest.mark.parametrize(
        "field, value",
        [("latency", "abc"), ("latency", True), ("num_seeds", 2.5), ("channel_capacity", "1")],
    )
    def test_a_mistyped_field_is_a_miss(self, tmp_path, field, value):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        cache.store(spec, _result())
        (path,) = (tmp_path / "cache").glob("*.json")
        record = json.loads(path.read_text())
        record["result"][field] = value
        path.write_text(json.dumps(record))
        assert cache.load(spec) is None

    @pytest.mark.parametrize(
        "keyless", [{}, {"result": _result().to_dict()}], ids=["empty", "result-only"]
    )
    def test_a_record_without_its_key_is_a_miss(self, tmp_path, keyless):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        cache.store(spec, _result())
        (path,) = (tmp_path / "cache").glob("*.json")
        path.write_text(json.dumps(keyless))
        assert cache.load(spec) is None

    def test_a_directory_at_the_record_path_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        cache.store(spec, _result())
        (path,) = (tmp_path / "cache").glob("*.json")
        path.unlink()
        path.mkdir()
        assert cache.load(spec) is None

    def test_storing_again_repairs_a_corrupted_record(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        cache.store(spec, _result())
        (path,) = (tmp_path / "cache").glob("*.json")
        path.write_bytes(b"\xff\xfe{")
        assert cache.load(spec) is None
        cache.store(spec, _result())
        hit = cache.load(spec)
        assert hit is not None and hit.latency == 612.0

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        cache.store(spec, _result())
        (path,) = (tmp_path / "cache").glob("*.json")
        record = json.loads(path.read_text())
        record["key"] = "0" * 64
        path.write_text(json.dumps(record))
        assert cache.load(spec) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.store(_spec(), _result())
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.clear() == 0


class TestCacheInfoAndPrune:
    def test_info_on_missing_directory(self, tmp_path):
        info = ResultCache(tmp_path / "absent").info()
        assert info.entries == 0 and info.total_bytes == 0

    def test_info_counts_entries_and_bytes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.store(_spec(), _result())
        cache.store(_spec(num_seeds=3), _result())
        info = cache.info()
        assert info.entries == 2
        assert info.total_bytes > 0
        assert info.schema_version >= 2
        assert info.oldest_age_days >= info.newest_age_days >= 0.0
        assert str(tmp_path / "cache") in info.describe()

    def test_prune_by_age_removes_only_old_records(self, tmp_path):
        import os

        cache = ResultCache(tmp_path / "cache")
        cache.store(_spec(), _result())
        cache.store(_spec(num_seeds=3), _result())
        old, fresh = sorted((tmp_path / "cache").glob("*.json"))
        two_months_ago = fresh.stat().st_mtime - 60 * 86400
        os.utime(old, (two_months_ago, two_months_ago))

        assert cache.prune(max_age_days=30) == 1
        assert [p.name for p in (tmp_path / "cache").glob("*.json")] == [fresh.name]
        assert cache.info().oldest_age_days < 30

    def test_prune_without_age_clears_everything(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.store(_spec(), _result())
        assert cache.prune() == 1
        assert len(cache) == 0
