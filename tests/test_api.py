"""The public names: every exported name resolves, every shipped instance
is one ``Instance`` record, and the retired oracle wrappers, report
classes and instance fields stay gone."""
import dataclasses
import inspect

import pytest

import addnf
import addnf.logics
from addnf.logics import LOGIC_IDS, bao, base, build_instance, gf, modal, prop

RETIRED = (
    "OracleReport",
    "VerifyReport",
    "PartitionReport",
    "Failure",
    "prop_oracle",
    "kripke_oracle",
    "fo_oracle",
    "bao_oracle",
    "PropositionalInstance",
    "KripkeOracle",
    "ComplexAlgebraOracle",
    "Constituent",
    "validate_domains",
    "TruthTableOracle",
    "PackedOracle",
    "BLOCK_MODELS",
    "NOT_SIG",
    "AND_SIG",
    "OR_SIG",
    "depth",
    "vocabulary",
    "mask_to_list",
    "BAOInstance",
)


@pytest.mark.parametrize("module", [addnf, addnf.logics], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is not None, name


def test_one_report_type_and_one_check_entry_point():
    assert addnf.Report is addnf.logics.Report is base.Report
    assert not hasattr(base.Oracle, "first_failures")


@pytest.mark.parametrize("module", [addnf, addnf.logics, addnf.constituents, addnf.rewriter,
                                    addnf.syntax, bao, base, gf, modal, prop],
                         ids=lambda m: m.__name__)
def test_retired_names_are_gone(module):
    for name in RETIRED:
        assert not hasattr(module, name), (module.__name__, name)


@pytest.mark.parametrize("logic_id", LOGIC_IDS)
def test_every_instance_is_one_record(logic_id):
    assert "Instance" in addnf.logics.__all__ and addnf.logics.Instance is base.Instance
    inst = build_instance(logic_id)
    assert isinstance(inst, base.Instance)
    assert inst.domain is inst.logic.domain


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_retired_instance_fields_are_gone():
    fields = _field_names(addnf.LogicDef)
    assert "oracle" not in fields and "special_forms" not in fields
    assert not hasattr(gf.GFInstance, "free")
    assert "equality" not in _field_names(gf.GFInstance)
    assert {"variables", "relations"} <= _field_names(gf.GFInstance)
    assert "kind" not in {f.name for f in dataclasses.fields(addnf.ConnectiveSig)}


def test_retired_rewriter_and_constituent_fields_are_gone():
    assert "trace" not in inspect.signature(addnf.normalize).parameters
    assert "trace" not in {f.name for f in dataclasses.fields(addnf.NormalizationResult)}
    for name in ("member", "members", "literal_mask", "bar_pos_mask", "__iter__", "__len__",
                 "describe"):
        assert not hasattr(addnf.ConstituentSpace, name), name
    assert not hasattr(addnf.DomainSystem, "in_domain")


def _context_classes() -> set[type]:
    """``Context`` and every subclass of it defined in the engine."""
    found, stack = set(), [base.Context]
    while stack:
        cls = stack.pop()
        found.add(cls)
        stack.extend(c for c in cls.__subclasses__() if c.__module__.startswith("addnf."))
    assert {base.RelationalBlock, gf._FOBlock, addnf.rewriter._SpaceModel} <= found
    return found


def test_context_eval_is_the_one_formula_walk():
    found = _context_classes()
    for cls in found:
        for name in ("_compute", "_eval", "_admitted"):
            assert not hasattr(cls, name), (cls.__name__, name)
        if cls is not base.Context:
            assert "eval" not in vars(cls), cls.__name__
    inst = build_instance("gf")
    gen = addnf.Generator(0, {"(R u v)"}, (), inst.domain.points)
    block = next(inst.oracle.blocks(gen, 1))
    assert not hasattr(block, "_admitted") and not hasattr(block.layout.where, "domain")


def test_one_bar_recursion_and_one_block_proposition_reader():
    assert not hasattr(addnf.constituents, "_compatible")
    assert "base" not in inspect.signature(addnf.ConstituentSpace).parameters
    prop_inst = build_instance("prop")
    gen = addnf.Generator(1, {"p"}, (), prop_inst.domain.points)
    assert not hasattr(addnf.space(gen, prop_inst.domain), "base")
    readers = {cls for cls in _context_classes() - {base.Context} if "prop_mask" in vars(cls)}
    assert readers == {base.PackedBlock, addnf.rewriter._SpaceModel}
    inst = build_instance("gf")
    gen = addnf.Generator(0, {"(R u v)"}, (), inst.domain.points)
    block = next(inst.oracle.blocks(gen, 1))
    assert block.prop_mask("(R u v)") and not hasattr(block, "_atoms")
    assert "__init__" not in vars(gf._FOBlock)


def test_each_value_is_read_where_it_already_is():
    # Countermodels are read off the failing block; GF atoms are cached
    # only per block; a space does not hold the domain system it came from.
    assert not hasattr(base.PackedBlock, "model")
    assert not hasattr(base._BlockLayout, "single")
    inst = build_instance("gf")
    gen = addnf.Generator(0, {"(R u v)"}, (), inst.domain.points)
    block = next(inst.oracle.blocks(gen, 1))
    assert not hasattr(block.layout, "_single")
    assert not hasattr(block.layout.where, "_spreads")
    assert "ds" not in inspect.signature(addnf.ConstituentSpace).parameters


@pytest.mark.parametrize("logic_id", LOGIC_IDS)
def test_build_instance_reads_its_defaults_from_the_factory(logic_id):
    # A key the factory lacked would escape build_instance as a TypeError.
    factory, accepted = addnf.logics._FACTORIES[logic_id]
    assert accepted == tuple(inspect.signature(factory).parameters)
    built, made = build_instance(logic_id), factory()
    assert sorted(built.logic.connectives) == sorted(made.logic.connectives)
    assert built.logic.propositions == made.logic.propositions
    assert built.domain.to_json() == made.domain.to_json()


def test_build_instance_passes_config_keys_by_name():
    inst = build_instance("gf", {"equality": True})
    assert "(= u v)" in inst.atoms and inst.variables == ("u", "v")
    assert inst.atoms == gf.gf_instance(equality=True).atoms
    assert "(= u v)" not in build_instance("gf").atoms


def test_the_parser_has_no_logic_hooks():
    fields = dataclasses.fields(addnf.LogicDef)
    assert {"compound_form", "token_form"}.isdisjoint(f.name for f in fields)
    assert not any("Callable" in str(f.type) for f in fields)
    for name in ("ParseError", "DomainViolation", "parse_compound", "_quantifier"):
        assert not hasattr(gf, name), name
