"""The storage rule every value type keeps: it copies its input and holds
its arrays read-only, so neither the caller nor a holder can change a
validated value after the fact."""

import dataclasses
from collections.abc import Mapping

import numpy as np
import pytest

from indivisible.correspondence import (DensityMatrix, KrausSet,
                                        PotentialMatrix, UnitaryMatrix)
from indivisible.embed import Trajectory
from indivisible.errors import completeness_deviation
from indivisible.oscillator import (HermitianMatrix, PhaseSpaceState,
                                    PhaseTrajectory, SHSystem, StateVector)
from indivisible.stochastic import (Distribution, IndivisibleProcess,
                                    TransitionMatrix)
from oracles import reference_completeness_deviation

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _process(transitions):
    return IndivisibleProcess(2, (0.0, 1.0), (0.0,), transitions,
                              Distribution([1.0, 0.0]))


# name -> (constructor, the caller's inputs it is built from)
VALUES = {
    "Distribution": (Distribution, [np.array([0.25, 0.75])]),
    "TransitionMatrix": (TransitionMatrix, [np.array([[0.9, 0.2], [0.1, 0.8]])]),
    "UnitaryMatrix": (UnitaryMatrix, [HADAMARD.astype(complex)]),
    "PotentialMatrix": (PotentialMatrix, [HADAMARD.astype(complex)]),
    "KrausSet": (lambda *ops: KrausSet(ops),
                 [np.diag([1.0, 0.0]).astype(complex),
                  np.diag([0.0, 1.0]).astype(complex)]),
    "DensityMatrix": (DensityMatrix, [np.diag([0.5, 0.5]).astype(complex)]),
    "HermitianMatrix": (HermitianMatrix, [np.array([[1.0, 2.0j], [-2.0j, 0.0]])]),
    "StateVector": (StateVector, [np.array([0.6, 0.8j])]),
    "PhaseSpaceState": (PhaseSpaceState, [np.array([1.0, 2.0]),
                                          np.array([3.0, 4.0])]),
    "SHSystem": (SHSystem, [np.array([[1.0, 2.0], [2.0, 1.0]]),
                            np.array([[0.0, 1.0], [-1.0, 0.0]])]),
    "PhaseTrajectory": (PhaseTrajectory, [np.array([0.0, 0.5]), np.ones((2, 3)),
                                          np.zeros((2, 3))]),
    "Trajectory": (Trajectory, [np.array([0.0, 0.5]), np.array([1.0, 0.9]),
                                np.array([0.0, -0.1])]),
    "IndivisibleProcess": (_process,
                           [{(1.0, 0.0): TransitionMatrix(np.eye(2), t=1.0)}]),
}


def _stored_arrays(value):
    """Every array a value holds, through nested values, tuples and mappings."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        parts = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, Mapping):
        parts = list(value.values())
    elif isinstance(value, tuple):
        parts = list(value)
    else:
        return []
    return [arr for part in parts for arr in _stored_arrays(part)]


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_copy_their_input_and_store_it_read_only(name):
    make, inputs = VALUES[name]
    inputs = [arg.copy() for arg in inputs]  # the test writes to them
    value = make(*inputs)
    stored = _stored_arrays(value)
    assert stored
    assert not any(arr.flags.writeable for arr in stored)
    before = [arr.copy() for arr in stored]
    for arg in inputs:
        if isinstance(arg, np.ndarray):
            assert arg.flags.writeable
            arg[...] = 7.0
        else:
            arg[(5.0, 9.0)] = TransitionMatrix(np.eye(2), t=5.0, t0=9.0)
    assert all(np.array_equal(a, b) for a, b in zip(_stored_arrays(value), before))
    if isinstance(value, IndivisibleProcess):
        assert (5.0, 9.0) not in value.transitions
        with pytest.raises(TypeError):
            value.transitions[(5.0, 9.0)] = value.transitions[(1.0, 0.0)]


def _base_chain(arr):
    """``arr`` and every ndarray on its ``.base`` chain."""
    chain = []
    while isinstance(arr, np.ndarray):
        chain.append(arr)
        arr = arr.base
    return chain


@pytest.mark.parametrize("name", sorted(VALUES))
def test_stored_arrays_cannot_be_made_writable_again(name):
    make, inputs = VALUES[name]
    value = make(*inputs)
    for stored in _stored_arrays(value):
        before = stored.tobytes()
        for arr in _base_chain(stored):
            with pytest.raises(ValueError):
                arr.flags.writeable = True
        assert stored.tobytes() == before


# The residual each type measures while validating, against a second
# computation on what it stores: for KrausSet, one operator at a time.
@pytest.mark.parametrize("value, measured", [
    (UnitaryMatrix(HADAMARD.astype(complex)),
     lambda u: completeness_deviation(u.matrix)),
    (KrausSet([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
     lambda kraus: reference_completeness_deviation(*kraus.operators)),
], ids=["UnitaryMatrix", "KrausSet"])
def test_measured_deviation_is_kept_read_only(value, measured):
    assert value.deviation == measured(value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.deviation = 0.0
