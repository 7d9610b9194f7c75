"""Synthetic genomes and an ART-like short-read simulator.

The paper's two smaller datasets were produced by running the ART read
simulator over NCBI reference chromosomes; the two larger ones are real
GAGE read sets.  Neither is available offline, so this module provides
the closest synthetic equivalent:

* :func:`generate_genome` builds a random reference sequence with a
  controllable GC content and, importantly, *repeated segments* —
  repeats are what create ambiguous (⟨m-n⟩-typed) vertices in the de
  Bruijn graph and hence bound contig length, exactly the structural
  property the assembly algorithms have to cope with.
* :class:`ReadSimulator` mimics ART's behaviour at the level that
  matters for assembly: uniform sampling of read start positions to a
  target coverage, reads drawn from both strands, per-base substitution
  errors (which create the tips and bubbles that error correction
  removes), and occasional ``N`` bases.

Every public entry point takes an explicit ``seed`` so that datasets,
and therefore benchmark outputs, are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from .alphabet import NUCLEOTIDES
from .io_fastq import Read, ReadPair
from .sequence import reverse_complement

_COMPLEMENTARY_ERROR_CHOICES = {
    "A": "CGT",
    "C": "AGT",
    "G": "ACT",
    "T": "ACG",
}


def _apply_sequencing_errors(
    fragment: str,
    rng: random.Random,
    error_rate: float,
    ambiguous_rate: float,
) -> Tuple[str, int]:
    """Introduce substitution errors and occasional ``N`` bases."""
    if error_rate == 0.0 and ambiguous_rate == 0.0:
        return fragment, 0
    bases = list(fragment)
    errors = 0
    for position, base in enumerate(bases):
        roll = rng.random()
        if roll < error_rate:
            bases[position] = rng.choice(_COMPLEMENTARY_ERROR_CHOICES[base])
            errors += 1
        elif roll < error_rate + ambiguous_rate:
            bases[position] = "N"
            errors += 1
    return "".join(bases), errors


def generate_genome(
    length: int,
    gc_content: float = 0.41,
    repeat_fraction: float = 0.05,
    repeat_length: int = 200,
    seed: int = 0,
) -> str:
    """Generate a random reference genome.

    Parameters
    ----------
    length:
        Total genome length in base pairs.
    gc_content:
        Target fraction of G/C bases (human chromosomes are ≈ 0.41,
        which is the value Table IV reports for HC-2 assemblies).
    repeat_fraction:
        Fraction of the genome covered by copies of earlier segments.
        Repeats longer than k make k-mers ambiguous and are the reason
        assemblies break into contigs rather than one chromosome.
    repeat_length:
        Length of each repeated segment.
    seed:
        Random seed (the genome is fully determined by its arguments).
    """
    if length <= 0:
        raise ValueError(f"genome length must be positive, got {length}")
    if not 0.0 <= gc_content <= 1.0:
        raise ValueError(f"gc_content must be in [0, 1], got {gc_content}")
    if not 0.0 <= repeat_fraction < 1.0:
        raise ValueError(f"repeat_fraction must be in [0, 1), got {repeat_fraction}")

    rng = random.Random(seed)
    at_probability = (1.0 - gc_content) / 2.0
    gc_probability = gc_content / 2.0
    weights = [at_probability, gc_probability, gc_probability, at_probability]

    bases: List[str] = rng.choices(NUCLEOTIDES, weights=weights, k=length)
    genome = "".join(bases)

    # Paste copies of earlier segments over later positions to create
    # exact repeats.  The copies never overwrite the first
    # ``repeat_length`` bases so there is always a unique anchor.
    repeat_budget = int(length * repeat_fraction)
    if repeat_budget >= repeat_length and length > 2 * repeat_length:
        sequence = list(genome)
        placed = 0
        while placed + repeat_length <= repeat_budget:
            source_start = rng.randrange(0, length - repeat_length)
            target_start = rng.randrange(repeat_length, length - repeat_length)
            segment = sequence[source_start : source_start + repeat_length]
            sequence[target_start : target_start + repeat_length] = segment
            placed += repeat_length
        genome = "".join(sequence)
    return genome


@dataclass(frozen=True)
class ReadSimulationConfig:
    """Parameters of one simulated sequencing run."""

    read_length: int = 100
    coverage: float = 30.0
    error_rate: float = 0.01
    ambiguous_rate: float = 0.0005
    both_strands: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.read_length <= 0:
            raise ValueError(f"read_length must be positive, got {self.read_length}")
        if self.coverage <= 0:
            raise ValueError(f"coverage must be positive, got {self.coverage}")
        if not 0.0 <= self.error_rate < 1.0:
            raise ValueError(f"error_rate must be in [0, 1), got {self.error_rate}")
        if not 0.0 <= self.ambiguous_rate < 1.0:
            raise ValueError(f"ambiguous_rate must be in [0, 1), got {self.ambiguous_rate}")


class ReadSimulator:
    """Draws error-bearing short reads from a reference genome."""

    def __init__(self, config: ReadSimulationConfig) -> None:
        self.config = config

    def number_of_reads(self, genome_length: int) -> int:
        """Reads needed to reach the target coverage on ``genome_length``."""
        return max(1, int(round(self.config.coverage * genome_length / self.config.read_length)))

    def simulate(self, genome: str, name_prefix: str = "read") -> List[Read]:
        """Generate the full simulated read set for ``genome``."""
        config = self.config
        if len(genome) < config.read_length:
            raise ValueError(
                f"genome length {len(genome)} is shorter than read length {config.read_length}"
            )
        rng = random.Random(config.seed)
        total_reads = self.number_of_reads(len(genome))
        max_start = len(genome) - config.read_length
        reads: List[Read] = []
        for index in range(total_reads):
            start = rng.randint(0, max_start)
            fragment = genome[start : start + config.read_length]
            from_reverse_strand = config.both_strands and rng.random() < 0.5
            if from_reverse_strand:
                fragment = reverse_complement(fragment)
            sequence, _errors = self._apply_errors(fragment, rng)
            strand = "-" if from_reverse_strand else "+"
            reads.append(
                Read(
                    name=f"{name_prefix}-{index}:{start}:{strand}",
                    sequence=sequence,
                    quality="I" * len(sequence),
                )
            )
        return reads

    def _apply_errors(self, fragment: str, rng: random.Random) -> Tuple[str, int]:
        config = self.config
        return _apply_sequencing_errors(
            fragment, rng, config.error_rate, config.ambiguous_rate
        )


def simulate_dataset(
    genome_length: int,
    read_length: int = 100,
    coverage: float = 30.0,
    error_rate: float = 0.01,
    repeat_fraction: float = 0.05,
    seed: int = 0,
) -> Tuple[str, List[Read]]:
    """One-call helper: generate a genome and its simulated reads."""
    genome = generate_genome(
        length=genome_length,
        repeat_fraction=repeat_fraction,
        seed=seed,
    )
    simulator = ReadSimulator(
        ReadSimulationConfig(
            read_length=read_length,
            coverage=coverage,
            error_rate=error_rate,
            seed=seed + 1,
        )
    )
    return genome, simulator.simulate(genome)


# ----------------------------------------------------------------------
# paired-end simulation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PairedReadSimulationConfig:
    """Parameters of one simulated paired-end sequencing run.

    The fragment (insert) length is drawn from a normal distribution
    with mean ``insert_size_mean`` and standard deviation
    ``insert_size_std`` — the same model ART and wgsim use — and the
    two mates are read from the fragment's ends in FR orientation:
    mate 1 forward from the 5' end, mate 2 reverse-complemented from
    the 3' end.  ``coverage`` counts *base* coverage over both mates
    together, so the pair count is ``coverage * G / (2 * read_length)``.
    """

    read_length: int = 100
    coverage: float = 30.0
    insert_size_mean: float = 500.0
    insert_size_std: float = 50.0
    error_rate: float = 0.01
    ambiguous_rate: float = 0.0005
    seed: int = 0

    def __post_init__(self) -> None:
        if self.read_length <= 0:
            raise ValueError(f"read_length must be positive, got {self.read_length}")
        if self.coverage <= 0:
            raise ValueError(f"coverage must be positive, got {self.coverage}")
        if self.insert_size_mean < 2 * self.read_length:
            raise ValueError(
                f"insert_size_mean must be at least twice the read length "
                f"({2 * self.read_length}), got {self.insert_size_mean}"
            )
        if self.insert_size_std < 0:
            raise ValueError(
                f"insert_size_std must be non-negative, got {self.insert_size_std}"
            )
        if not 0.0 <= self.error_rate < 1.0:
            raise ValueError(f"error_rate must be in [0, 1), got {self.error_rate}")
        if not 0.0 <= self.ambiguous_rate < 1.0:
            raise ValueError(f"ambiguous_rate must be in [0, 1), got {self.ambiguous_rate}")


class PairedReadSimulator:
    """Draws error-bearing read pairs from a reference genome.

    Mate names follow the ``name/1`` / ``name/2`` convention, with the
    shared base name recording the fragment's start position, insert
    size and source strand (``prefix-index:start:insert:strand``) so
    tests can verify placements.
    """

    def __init__(self, config: PairedReadSimulationConfig) -> None:
        self.config = config

    def number_of_pairs(self, genome_length: int) -> int:
        """Pairs needed to reach the target base coverage on ``genome_length``."""
        return max(
            1,
            int(round(self.config.coverage * genome_length / (2 * self.config.read_length))),
        )

    def _draw_insert(self, rng: random.Random, genome_length: int) -> int:
        config = self.config
        ceiling = min(genome_length, int(config.insert_size_mean + 4 * config.insert_size_std))
        floor = 2 * config.read_length
        if ceiling < floor:
            raise ValueError(
                f"genome length {genome_length} cannot hold an insert of "
                f"{floor} bp (two {config.read_length} bp mates)"
            )
        insert = int(round(rng.gauss(config.insert_size_mean, config.insert_size_std)))
        return max(floor, min(ceiling, insert))

    def simulate(self, genome: str, name_prefix: str = "pair") -> List[ReadPair]:
        """Generate the full simulated pair set for ``genome``."""
        config = self.config
        if len(genome) < 2 * config.read_length:
            raise ValueError(
                f"genome length {len(genome)} is shorter than one insert "
                f"(two {config.read_length} bp mates)"
            )
        rng = random.Random(config.seed)
        total_pairs = self.number_of_pairs(len(genome))
        pairs: List[ReadPair] = []
        for index in range(total_pairs):
            insert = self._draw_insert(rng, len(genome))
            start = rng.randint(0, len(genome) - insert)
            fragment = genome[start : start + insert]
            # Sampling the fragment from the reverse strand swaps which
            # physical end each mate comes from, exactly as on a real
            # flow cell.
            from_reverse_strand = rng.random() < 0.5
            if from_reverse_strand:
                fragment = reverse_complement(fragment)
            mate1 = fragment[: config.read_length]
            mate2 = reverse_complement(fragment[-config.read_length :])
            sequence1, _ = self._apply_errors(mate1, rng)
            sequence2, _ = self._apply_errors(mate2, rng)
            strand = "-" if from_reverse_strand else "+"
            base = f"{name_prefix}-{index}:{start}:{insert}:{strand}"
            pairs.append(
                ReadPair(
                    read1=Read(name=f"{base}/1", sequence=sequence1, quality="I" * len(sequence1)),
                    read2=Read(name=f"{base}/2", sequence=sequence2, quality="I" * len(sequence2)),
                )
            )
        return pairs

    def _apply_errors(self, fragment: str, rng: random.Random) -> Tuple[str, int]:
        config = self.config
        return _apply_sequencing_errors(
            fragment, rng, config.error_rate, config.ambiguous_rate
        )


def simulate_paired_dataset(
    genome_length: int,
    read_length: int = 100,
    coverage: float = 30.0,
    insert_size_mean: float = 500.0,
    insert_size_std: float = 50.0,
    error_rate: float = 0.01,
    repeat_fraction: float = 0.05,
    repeat_length: int = 200,
    seed: int = 0,
) -> Tuple[str, List[ReadPair]]:
    """One-call helper: generate a genome and paired-end reads from it.

    Scaffolding needs a *fragmented* assembly to have anything to join,
    so ``repeat_fraction``/``repeat_length`` matter here: repeats longer
    than k break contigs, and inserts longer than the repeats are what
    lets read pairs bridge those breaks.
    """
    genome = generate_genome(
        length=genome_length,
        repeat_fraction=repeat_fraction,
        repeat_length=repeat_length,
        seed=seed,
    )
    simulator = PairedReadSimulator(
        PairedReadSimulationConfig(
            read_length=read_length,
            coverage=coverage,
            insert_size_mean=insert_size_mean,
            insert_size_std=insert_size_std,
            error_rate=error_rate,
            seed=seed + 1,
        )
    )
    return genome, simulator.simulate(genome)
