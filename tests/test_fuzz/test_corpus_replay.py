"""Regression-corpus replay: every minimized finding checked into
``corpus/`` runs through the full five-config differential oracle —
all three machine models for the plain matrix, ``gc_interval=1`` with
heap poisoning for the adversarial re-runs.

Any future optimizer or GC change that re-breaks a corpus program fails
here, permanently.
"""

from pathlib import Path

import pytest

from repro.fuzz import check_program, oracle
from repro.fuzz.oracle import ALL_CONFIGS
from repro.machine import VM, superinst
from repro.machine.superinst import TIER_THRESHOLD, SuperinstPlan

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.c"))


def test_corpus_is_nonempty():
    assert len(CORPUS) >= 4


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_program_survives_five_config_oracle(path):
    report = check_program(path.read_text(), adv_interval=1)
    assert report.ok, f"{path.name}:\n{report.describe()}"
    assert report.reference.status == "ok"


@pytest.mark.parametrize("threshold", (TIER_THRESHOLD, 1))
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_program_replays_identically_fused(path, threshold,
                                                  monkeypatch):
    """Every plain cell under the tiered default matches the unfused
    reference in outcome and detail.  The corpus programs are small:
    at the default threshold none of their runs tiers up, so threshold
    1 also runs them with every run fused on its first entry."""
    monkeypatch.setattr(superinst, "TIER_THRESHOLD", threshold)
    source = path.read_text()

    def unfused_vm(*args, **kwargs):
        return VM(*args, superinst=SuperinstPlan(frozenset()), **kwargs)

    for config in ALL_CONFIGS:
        default = oracle.compile_and_run(source, config)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "VM", unfused_vm)
            unfused = oracle.compile_and_run(source, config)
        assert (default.key(), default.detail) == (unfused.key(),
                                                   unfused.detail), config
