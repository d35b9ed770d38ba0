"""The records of ``colim`` behave as plain value records: construction
by position or keyword with fixed defaults, ``==`` and ``hash`` over
their fields, a ``repr`` that names each field, and no assignment to a
frozen record."""

import math

import pytest

from colim.colimit import ColimitElement, Trilean
from colim.confluence import CertificatePeriod, ConfluenceCertificate, RoundtripReport, SearchBudget, VerifyReport
from colim.diagrams import SequenceDiagram, ValidationReport
from colim.invariants import Evidence, EvidenceReport, SupernaturalNumber
from colim.matrices import Matrix

# each record class with one example: its fields in order and their
# values, the defaults of the fields that have one, and the example's repr
RECORDS = [
    (ColimitElement, {"stage": 2, "vec": (1, -1)}, {}, "ColimitElement(stage=2, vec=(1, -1))"),
    (Trilean, {"kind": "yes", "stage": 3}, {"stage": None}, "Trilean(kind='yes', stage=3)"),
    (
        CertificatePeriod,
        {"index_step_a": 1, "index_step_b": 2, "period_len": 1},
        {},
        "CertificatePeriod(index_step_a=1, index_step_b=2, period_len=1)",
    ),
    (
        ConfluenceCertificate,
        {
            "i_indices": (1, 2),
            "k_indices": (2, 4),
            "f_mats": (Matrix([[1]]), Matrix([[1]])),
            "g_mats": (Matrix([[2]]),),
            "periodic": CertificatePeriod(1, 2, 1),
        },
        {"periodic": None},
        "ConfluenceCertificate(i_indices=(1, 2), k_indices=(2, 4), f_mats=(Matrix([[1]], cols=1), "
        "Matrix([[1]], cols=1)), g_mats=(Matrix([[2]], cols=1),), "
        "periodic=CertificatePeriod(index_step_a=1, index_step_b=2, period_len=1))",
    ),
    (
        SearchBudget,
        {"depth": 3, "entry_bound": 2, "stage_horizon": 6, "node_limit": 100},
        {},
        "SearchBudget(depth=3, entry_bound=2, stage_horizon=6, node_limit=100)",
    ),
    (
        SequenceDiagram,
        {"mode": "plain", "ranks": (1, 1), "transitions": (Matrix([[2]]),), "mono_required": True, "period": (0, 1)},
        {"mono_required": False, "period": None},
        "SequenceDiagram(mode='plain', ranks=(1, 1), transitions=(Matrix([[2]], cols=1),), "
        "mono_required=True, period=(0, 1))",
    ),
    (
        SupernaturalNumber,
        {"exponents": ((2, math.inf), (3, 1))},
        {},
        "SupernaturalNumber(exponents=((2, inf), (3, 1)))",
    ),
    (Evidence, {"strength": "CONCLUSIVE", "message": "ranks differ"}, {}, "Evidence(strength='CONCLUSIVE', message='ranks differ')"),
    (
        VerifyReport,
        {"failures": ["f_1 is wrong"], "notes": ["a note"], "periodic_accepted": True},
        {"failures": [], "notes": [], "periodic_accepted": None},
        "VerifyReport(failures=['f_1 is wrong'], notes=['a note'], periodic_accepted=True)",
    ),
    (
        RoundtripReport,
        {"failures": ["A sample"], "checked": 3},
        {"failures": [], "checked": 0},
        "RoundtripReport(failures=['A sample'], checked=3)",
    ),
    (ValidationReport, {"violations": ["bad"]}, {"violations": []}, "ValidationReport(violations=['bad'])"),
    (
        EvidenceReport,
        {"entries": [Evidence("INDICATIVE", "gap")], "notes": ["a note"]},
        {"entries": [], "notes": []},
        "EvidenceReport(entries=[Evidence(strength='INDICATIVE', message='gap')], notes=['a note'])",
    ),
]

REPORTS = {VerifyReport, RoundtripReport, ValidationReport, EvidenceReport}


@pytest.mark.parametrize("cls, values, defaults, text", RECORDS, ids=[case[0].__name__ for case in RECORDS])
def test_record(cls, values, defaults, text):
    one = cls(*values.values())
    assert {name: getattr(one, name) for name in values} == values
    bare = cls(*[value for name, value in values.items() if name not in defaults])
    assert {name: getattr(bare, name) for name in defaults} == defaults

    same = cls(**values)
    assert one == same and not one != same
    assert one != bare or not defaults
    twin = type("Twin", (cls,), {})(*values.values())  # equal fields, other class
    assert one != twin and twin != one
    assert one != tuple(values.values())
    assert repr(one) == repr(same) == text

    field = next(iter(values))
    if cls in REPORTS:  # mutable and unhashable; defaults are not shared
        with pytest.raises(TypeError):
            hash(one)
        assert all(getattr(bare, name) is not getattr(cls(), name) for name in defaults if defaults[name] == [])
        setattr(one, field, bare)
        assert getattr(one, field) is bare
    else:
        assert hash(one) == hash(same)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(one, field, getattr(bare, field))
        with pytest.raises(AttributeError):
            delattr(one, field)
        assert one == same


def test_evidence_report_compares_and_prints_entries_and_notes_only():
    entries = [Evidence("CONCLUSIVE", "ranks differ")]
    report = EvidenceReport(entries, ["a note"], _base=object(), _sides=(1, 2))
    assert report == EvidenceReport(entries, ["a note"])
    assert report != EvidenceReport(entries, [])
    assert repr(report) == "EvidenceReport(entries=[Evidence(strength='CONCLUSIVE', message='ranks differ')], notes=['a note'])"
    assert report._sides == (1, 2)
    assert EvidenceReport()._base is None and EvidenceReport()._sides == ()
