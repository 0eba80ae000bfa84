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
)


@pytest.mark.parametrize("module", [addnf, addnf.logics], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is not None, name


def test_one_report_type_and_one_check_entry_point():
    assert addnf.Report is addnf.logics.Report is base.Report
    assert not hasattr(base.Oracle, "first_failures")
    assert not hasattr(bao.BAOInstance, "check_equal")


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


def test_retired_instance_fields_are_gone():
    fields = {f.name for f in dataclasses.fields(addnf.LogicDef)}
    assert "oracle" not in fields and "special_forms" not in fields
    assert not hasattr(gf.GFInstance, "free")
    assert "kind" not in {f.name for f in dataclasses.fields(addnf.ConnectiveSig)}


def test_retired_rewriter_and_constituent_fields_are_gone():
    assert "trace" not in inspect.signature(addnf.normalize).parameters
    assert "trace" not in {f.name for f in dataclasses.fields(addnf.NormalizationResult)}
    for name in ("member", "members", "literal_mask", "bar_pos_mask", "__iter__", "__len__"):
        assert not hasattr(addnf.ConstituentSpace, name), name


def test_the_parser_has_no_logic_hooks():
    fields = dataclasses.fields(addnf.LogicDef)
    assert {"compound_form", "token_form"}.isdisjoint(f.name for f in fields)
    assert not any("Callable" in str(f.type) for f in fields)
    for name in ("ParseError", "DomainViolation", "parse_compound", "_quantifier"):
        assert not hasattr(gf, name), name
