"""Detection power: semantic mutants that a run must refuse.

Each mutant is applied with ``monkeypatch`` to one builder or check, and the
CLI then runs a config: ``configs/acceptance.json``, or the complex-phase
``transfer`` config in ``tests/`` when the acceptance resources cannot see the
fault (their coefficients are real, so the transfer's phase conj(p) is 1 on
them).  A mutant is caught when the run exits 1, a verdict mismatch, or
fails with the error the table names.  Unmutated, every config exits 0.

Not caught yet, each shown by a run that still exits 0:

* grid rows skipped (``run_teleport_grid`` given only the first state): the
  report stays consistent and shows the loss only in ``runs`` and in call
  counts; a certificate over every input (ROADMAP item 2) closes it;
* ``FIDELITY_THRESHOLD`` loosened to 0: every correct run still passes, and
  the refused acceptance scenarios are refused by the split condition before
  any fidelity is taken; a report of how close each check came to its
  tolerance (ROADMAP aim 4) would show it.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wproto.cli as cli
import wproto.qsim as qsim
import wproto.sdc as sdc
import wproto.teleport as teleport
import wproto.wstates as wstates
from wproto.cli import main
from wproto.qsim import MeasurementBasis, Unitary

ROOT = Path(__file__).resolve().parent.parent
ACCEPTANCE = ROOT / "configs" / "acceptance.json"
PHASE_TRANSFER = Path(__file__).resolve().parent / "config_phase_transfer.json"


def swapped_corrections(mp):
    build = teleport.bob_strategy1_set

    def mutant(m, wm):
        ops = build(m, wm)
        ops[1], ops[2] = ops[2], ops[1]
        return ops

    mp.setattr(teleport, "bob_strategy1_set", mutant)


def off_correction_block(mp):
    build = teleport.bob_strategy1_set

    def mutant(m, wm):
        ops = build(m, wm)
        block = ops[1].block.copy()
        block[0, 0] += 1e-9
        ops[1] = Unitary.on_block(ops[1].dimension, ops[1].moved, block)
        return ops

    mp.setattr(teleport, "bob_strategy1_set", mutant)


def dropped_transfer_phase(mp):
    build = teleport.transfer_unitary

    def mutant(m, wm):
        u = build(m, wm)
        w1 = complex(wm.amplitudes[1])
        block = u.block.copy()
        block[1] *= w1 / abs(w1) if w1 else 1.0  # undoes the row's conj(p)
        return Unitary.on_block(u.dimension, u.moved, block)

    mp.setattr(teleport, "transfer_unitary", mutant)


def permuted_relay_labels(mp):
    build = teleport.serial_basis

    def mutant(m, wm):
        basis = build(m, wm)
        first, second, *rest = basis.labels
        return MeasurementBasis(basis.subset, basis.vectors, (second, first, *rest))

    mp.setattr(teleport, "serial_basis", mutant)


def inverted_verdict(mp):
    verdict = sdc._verdict

    def mutant(rows):
        judged = verdict(rows)
        return replace(judged, decodable=not judged.decodable)

    mp.setattr(sdc, "_verdict", mutant)


def repeated_sdc_operator(mp):
    build = sdc.general_encoding_set

    def mutant(c, m):
        encoding = build(c, m)
        bases = encoding.bases  # message 1 (base 1 in order 0) repeats message 0
        return replace(encoding, bases=(bases[0], bases[0]) + bases[2:])

    mp.setattr(sdc, "general_encoding_set", mutant)


def neighbour_base_gather(mp):
    gather = sdc.EncodingSet.gather

    def mutant(encoding, per_base):
        gathered = gather(encoding, per_base).copy()
        gathered[1] = gathered[0]  # message 1 reads base 0 in its own order 0
        return gathered

    mp.setattr(sdc.EncodingSet, "gather", mutant)


def reversed_cuts(mp):
    spectra = qsim.trailing_spectra_stack
    mp.setattr(wstates, "trailing_spectra_stack", lambda state: spectra(state)[::-1])


def flipped_family_sign(mp):
    build = teleport._family

    def mutant(zero, one, first, second):
        # rows (xi+, xi-, eta-, eta+), so eta+- = y|zero>|B> -+ x|one>|A>: each
        # is the other, the family stays orthonormal and only the corrections
        # can show the fault
        return build(zero, one, first, second)[[0, 1, 3, 2]]

    mp.setattr(teleport, "_family", mutant)


def off_balance_resource(mp):
    def unbalanced(build):
        def mutant(n):
            # 5e-7 of weight moved from the last coefficient to the first:
            # every cut's split sums then differ by 1e-6, and the norm stays 1
            coeffs = build(n).coeffs.copy()
            coeffs[0] *= math.sqrt(1 + 5e-7 / abs(coeffs[0]) ** 2)
            coeffs[-1] *= math.sqrt(1 - 5e-7 / abs(coeffs[-1]) ** 2)
            return wstates.CoefficientVector(coeffs)

        return mutant

    for name, build in list(cli.W_FAMILY.items()):
        mp.setitem(cli.W_FAMILY, name, unbalanced(build))


def skipped_moved_row(mp):
    rows = qsim._operator_rows

    def mutant(ops):
        moved, stack = rows(ops)
        return moved[:-1], stack[:, :-1]  # the last moved row is copied, not multiplied

    mp.setattr(qsim, "_operator_rows", mutant)


def shifted_branch_operators(mp):
    rows = qsim._operator_rows

    def mutant(ops):
        moved, stack = rows(ops)
        return moved, np.roll(stack, 1, axis=0)  # branch k + 1 gets operator k's rows

    mp.setattr(qsim, "_operator_rows", mutant)


# name: (mutant, config, exit code or the error the run must name)
MUTANTS = {
    "two strategy-1 corrections swapped": (swapped_corrections, ACCEPTANCE, 1),
    "a correction block off by 1e-9": (off_correction_block, ACCEPTANCE, ValueError),
    "the transfer's conj(p) phase dropped": (dropped_transfer_phase, PHASE_TRANSFER, 1),
    "the relay basis's first two labels swapped": (permuted_relay_labels, ACCEPTANCE, 1),
    "sdc's decodable verdict inverted": (inverted_verdict, ACCEPTANCE, 1),
    "a generated sdc set with one operator repeated": (repeated_sdc_operator, ACCEPTANCE, 1),
    "trailing_spectra returning the cuts reversed": (
        reversed_cuts, ACCEPTANCE, qsim.InternalConsistencyError
    ),
    "one family sign flipped": (flipped_family_sign, ACCEPTANCE, 1),
    "a resource off balance by 1e-6": (off_balance_resource, ACCEPTANCE, 1),
    "a correction that skips one moved row": (
        skipped_moved_row, ACCEPTANCE, qsim.InternalConsistencyError
    ),
    "a stacked correction applied to the next branch's rows": (
        shifted_branch_operators, ACCEPTANCE, 1
    ),
    "an sdc gather that reads a message's base from its neighbour": (
        neighbour_base_gather, ACCEPTANCE, 1
    ),
}


def _exit(config: Path, tmp_path: Path) -> int:
    return main(["--config", str(config), "--format", "json", "--out", str(tmp_path / "r.json")])


@pytest.mark.parametrize("config", [ACCEPTANCE, PHASE_TRANSFER], ids=lambda p: p.stem)
def test_every_config_passes_unmutated(config, tmp_path):
    assert _exit(config, tmp_path) == 0


@pytest.mark.parametrize("name", list(MUTANTS))
def test_the_mutant_is_caught(name, monkeypatch, tmp_path, capsys):
    mutate, config, caught = MUTANTS[name]
    mutate(monkeypatch)
    code = _exit(config, tmp_path)
    if caught == 1:
        assert code == 1
    else:
        assert code == cli.EXIT_INTERNAL_ERROR
        assert f"internal error: {caught.__name__}: " in capsys.readouterr().err
