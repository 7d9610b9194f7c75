"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.assembler import AssemblyConfig
from repro.dna.simulator import simulate_dataset


@pytest.fixture(scope="session")
def clean_dataset():
    """A small error-free, repeat-free dataset: assembles into one contig."""
    genome, reads = simulate_dataset(
        genome_length=3_000,
        read_length=80,
        coverage=15,
        error_rate=0.0,
        repeat_fraction=0.0,
        seed=101,
    )
    return genome, reads


@pytest.fixture(scope="session")
def noisy_dataset():
    """A dataset with sequencing errors and repeats: exercises error correction."""
    genome, reads = simulate_dataset(
        genome_length=8_000,
        read_length=100,
        coverage=20,
        error_rate=0.005,
        repeat_fraction=0.04,
        seed=202,
    )
    return genome, reads


@pytest.fixture()
def small_config():
    """Assembly configuration suitable for the tiny test datasets."""
    return AssemblyConfig(
        k=15,
        coverage_threshold=0,
        tip_length_threshold=40,
        bubble_edit_distance=5,
        num_workers=4,
    )


@pytest.fixture()
def noisy_config():
    """Assembly configuration for the noisy dataset (filters singletons)."""
    return AssemblyConfig(
        k=21,
        coverage_threshold=1,
        tip_length_threshold=80,
        bubble_edit_distance=5,
        num_workers=4,
    )
