"""The public names: every exported name resolves, and the retired
oracle wrappers and report classes stay gone."""
import pytest

import addnf
import addnf.logics
from addnf.logics import bao, base, gf, modal, prop

RETIRED = (
    "OracleReport",
    "VerifyReport",
    "PartitionReport",
    "Failure",
    "prop_oracle",
    "kripke_oracle",
    "fo_oracle",
    "bao_oracle",
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
                                    bao, base, gf, modal, prop], ids=lambda m: m.__name__)
def test_retired_names_are_gone(module):
    for name in RETIRED:
        assert not hasattr(module, name), (module.__name__, name)
