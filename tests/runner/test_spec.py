"""Grid expansion, normalisation and cache keying of experiment specs."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import FabricError, MappingError
from repro.runner import ExperimentSpec, FabricCell, Sweep, execute_cell, parse_axis

TINY = FabricCell(junction_rows=4, junction_cols=4)


class TestFabricCell:
    def test_quale_label_and_roundtrip(self):
        cell = FabricCell.quale()
        assert cell.is_quale
        assert cell.label == "quale-12x22c3"
        assert cell.build().name == "quale-45x85"

    def test_custom_build(self):
        fabric = TINY.build()
        assert fabric.name == TINY.label == "4x4c3"

    def test_geometry_is_checked_when_declared(self):
        with pytest.raises(FabricError, match="junction_cols must be at least 2"):
            FabricCell(junction_rows=4, junction_cols=1)


class TestExperimentSpec:
    def test_rejects_unknown_mapper(self):
        with pytest.raises(MappingError):
            ExperimentSpec(circuit="[[5,1,3]]", mapper="magic")

    def test_rejects_unknown_placer_for_qspr(self):
        with pytest.raises(MappingError):
            ExperimentSpec(circuit="[[5,1,3]]", mapper="qspr", placer="annealing")

    def test_normalisation_collapses_irrelevant_axes(self):
        a = ExperimentSpec("[[5,1,3]]", mapper="quale", placer="mvfb", num_seeds=9, random_seed=7)
        b = ExperimentSpec("[[5,1,3]]", mapper="quale", placer="center", num_seeds=2)
        assert a.normalized() == b.normalized()

    def test_monte_carlo_defaults_placements_to_num_seeds(self):
        spec = ExperimentSpec("[[5,1,3]]", placer="monte-carlo", num_seeds=4, fabric=TINY)
        assert execute_cell(spec).placement_runs == 4
        explicit = replace(spec, num_placements=2)
        assert execute_cell(explicit).placement_runs == 2

    def test_dict_roundtrip(self):
        spec = ExperimentSpec("[[7,1,3]]", placer="center", num_seeds=2, fabric=TINY)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_cache_key_is_stable_and_sensitive(self):
        base = ExperimentSpec("[[5,1,3]]", num_seeds=3)
        assert base.cache_key() == ExperimentSpec("[[5,1,3]]", num_seeds=3).cache_key()
        assert base.cache_key() != ExperimentSpec("[[5,1,3]]", num_seeds=4).cache_key()
        assert base.cache_key() != ExperimentSpec("[[7,1,3]]", num_seeds=3).cache_key()
        assert base.cache_key() != ExperimentSpec("[[5,1,3]]", num_seeds=3, fabric=TINY).cache_key()

    def test_cache_key_follows_qasm_content_not_path(self, tmp_path):
        a = tmp_path / "a.qasm"
        b = tmp_path / "b.qasm"
        a.write_text("QUBIT q0,0\nQUBIT q1,0\nH q0\nC-X q0,q1\n")
        b.write_text(a.read_text())
        assert ExperimentSpec(str(a)).cache_key() == ExperimentSpec(str(b)).cache_key()
        b.write_text(a.read_text() + "H q1\n")
        assert ExperimentSpec(str(a)).cache_key() != ExperimentSpec(str(b)).cache_key()


class TestSweep:
    def test_full_cross_product(self):
        sweep = Sweep(
            circuits=("[[5,1,3]]", "[[7,1,3]]"),
            mappers=("qspr",),
            placers=("mvfb", "monte-carlo"),
            num_seeds=(1, 2),
            random_seeds=(0, 1),
            fabrics=(TINY,),
        )
        # 2 circuits x 2 placers x 2 m x 2 seeds
        assert sweep.size == 16

    def test_deterministic_center_placer_collapses_seed_axes(self):
        sweep = Sweep(
            circuits=("[[5,1,3]]",),
            mappers=("qspr",),
            placers=("mvfb", "center"),
            num_seeds=(1, 2),
            random_seeds=(0, 1),
            fabrics=(TINY,),
        )
        cells = sweep.expand()
        # mvfb: 2 m x 2 seeds = 4; center ignores both knobs -> one cell.
        assert len(cells) == 5
        assert sum(1 for cell in cells if cell.placer == "center") == 1

    def test_deduplicates_placer_axis_for_placerless_mappers(self):
        sweep = Sweep(
            circuits=("[[5,1,3]]",),
            mappers=("qspr", "quale", "ideal"),
            placers=("mvfb", "center"),
            num_seeds=(1, 2),
            fabrics=(TINY,),
        )
        cells = sweep.expand()
        # qspr: mvfb x 2 m = 2 plus one deterministic center cell; quale and
        # ideal collapse to one cell each.
        assert len(cells) == 5
        assert sum(1 for cell in cells if cell.mapper == "quale") == 1
        assert sum(1 for cell in cells if cell.mapper == "ideal") == 1

    def test_expansion_order_is_deterministic(self):
        sweep = Sweep(circuits=("[[5,1,3]]",), mappers=("qspr", "ideal"), fabrics=(TINY,))
        assert sweep.expand() == sweep.expand()

    def test_empty_axis_rejected(self):
        with pytest.raises(MappingError):
            Sweep(circuits=())

    def test_dict_roundtrip(self):
        sweep = Sweep(
            circuits=("[[5,1,3]]",), mappers=("qspr", "ideal"),
            num_seeds=(2, 5), fabrics=(TINY,),
        )
        assert Sweep.from_dict(sweep.to_dict()) == sweep

    def test_from_dict_accepts_comma_axes(self):
        sweep = Sweep.from_dict(
            {"circuits": "[[5,1,3]],[[7,1,3]]", "mappers": "qspr, quale",
             "num_seeds": "12", "random_seeds": "0,1"}
        )
        assert sweep.circuits == ("[[5,1,3]]", "[[7,1,3]]")
        assert sweep.mappers == ("qspr", "quale")
        # A multi-digit string is one seed count, not one per character.
        assert sweep.num_seeds == (12,)
        assert sweep.random_seeds == (0, 1)

    def test_from_dict_accepts_scalar_seed_axis(self):
        assert Sweep.from_dict({"circuits": "ghz", "num_seeds": 4}).num_seeds == (4,)

    def test_from_dict_refuses_non_integer_seed_counts(self):
        for axis in (2.5, [2.5], "2.5", [True]):
            with pytest.raises(MappingError, match="'num_seeds' must be an integer"):
                Sweep.from_dict({"circuits": "ghz", "num_seeds": axis})

    def test_from_dict_rejects_unknown_axes(self):
        with pytest.raises(MappingError, match="unknown sweep axes"):
            Sweep.from_dict({"circuits": "ghz", "frobnicators": "yes"})


class TestParseAxis:
    def test_plain_commas(self):
        assert parse_axis("qspr, quale,") == ("qspr", "quale")

    def test_brackets_protect_commas(self):
        assert parse_axis("[[5,1,3]],[[7,1,3]]") == ("[[5,1,3]]", "[[7,1,3]]")

    def test_sequence_passthrough(self):
        assert parse_axis(["a", "b"]) == ("a", "b")
