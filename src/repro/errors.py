"""Exception hierarchy for the PPA-assembler reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Sub-classes
are grouped per subsystem (Pregel engine, DNA handling, assembly
pipeline, quality assessment) to make failures self-describing.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class PregelError(ReproError):
    """Base class for errors raised by the Pregel engine substrate."""


class VertexNotFoundError(PregelError):
    """A message or request targeted a vertex ID that does not exist."""

    def __init__(self, vertex_id: int) -> None:
        super().__init__(f"vertex {vertex_id!r} does not exist in the graph")
        self.vertex_id = vertex_id

    def __reduce__(self):
        # Custom-constructor exceptions need an explicit reduce to
        # survive the pickle round-trip between backend worker
        # processes and the master.
        return (VertexNotFoundError, (self.vertex_id,))


class InvalidJobError(PregelError):
    """A job definition is inconsistent (e.g. no input, bad chaining)."""


class SuperstepLimitExceededError(PregelError):
    """A Pregel job exceeded its configured maximum number of supersteps.

    PPAs must terminate in O(log n) supersteps; hitting this limit
    almost always indicates an algorithmic bug rather than a large
    input, so the engine fails loudly instead of looping forever.
    """

    def __init__(self, limit: int) -> None:
        super().__init__(f"job did not terminate within {limit} supersteps")
        self.limit = limit

    def __reduce__(self):
        return (SuperstepLimitExceededError, (self.limit,))


class AggregatorError(PregelError):
    """An aggregator was used inconsistently (unknown name, bad type)."""


class UnknownBackendError(PregelError):
    """An execution-backend name did not match any registered backend."""

    def __init__(self, name: str, available: "list[str]") -> None:
        super().__init__(
            f"unknown execution backend {name!r}; available: {', '.join(available)}"
        )
        self.name = name
        self.available = list(available)

    def __reduce__(self):
        return (UnknownBackendError, (self.name, self.available))


class BackendExecutionError(PregelError):
    """A worker process of a distributed backend failed irrecoverably."""


class WorkflowError(ReproError):
    """A workflow is invalid or a stage failed to execute.

    Raised by :mod:`repro.workflow` for structural problems (duplicate
    stage names, empty workflows, missing state keys) and as the base
    class of checkpoint failures.
    """


class CheckpointError(WorkflowError):
    """A workflow checkpoint could not be written, read, or matched.

    Resuming against a directory whose checkpoints were written by a
    different workflow (or a differently-shaped run of the same
    workflow) raises this instead of silently producing a hybrid run.
    """


class CorruptBlobError(ReproError):
    """A stored blob's bytes no longer hash to the sha256 recorded for them.

    Content-store keys and spill tickets both carry the sha256 of what
    was written, so a mismatch means the file was damaged after it was
    written; what it holds must not be unpickled.
    """

    def __init__(self, key: str) -> None:
        super().__init__(f"blob {key} does not match its content hash")
        self.key = key

    def __reduce__(self):
        return (CorruptBlobError, (self.key,))


class ServiceError(ReproError):
    """Base class for errors raised by the assembly job service.

    Everything behind the REST API (:mod:`repro.service`) — job store,
    scheduler, worker pool, HTTP client — raises subclasses of this, so
    service embedders can catch one class at the boundary.
    """


class InvalidJobSpecError(ServiceError):
    """A submitted job specification could not be parsed or validated."""


class JobNotFoundError(ServiceError):
    """A job ID did not match any job known to the store."""

    def __init__(self, job_id: str) -> None:
        super().__init__(f"no job with id {job_id!r}")
        self.job_id = job_id

    def __reduce__(self):
        return (JobNotFoundError, (self.job_id,))


class JobStateError(ServiceError):
    """A job was in the wrong state for the requested operation.

    Raised e.g. when fetching the result of a job that has not
    succeeded, or transitioning a terminal job.
    """


class ServiceClientError(ServiceError):
    """An HTTP request to the job service failed.

    Carries the HTTP status code (0 when the server was unreachable)
    so callers can distinguish 'job not found' from 'service down'.
    """

    def __init__(self, message: str, status: int = 0) -> None:
        super().__init__(message)
        self.status = status

    def __reduce__(self):
        return (ServiceClientError, (str(self), self.status))


class DnaError(ReproError):
    """Base class for sequence handling errors."""


class InvalidNucleotideError(DnaError):
    """A sequence contained a character outside ``A/C/G/T/N``."""

    def __init__(self, character: str, position: int | None = None) -> None:
        location = "" if position is None else f" at position {position}"
        super().__init__(f"invalid nucleotide {character!r}{location}")
        self.character = character
        self.position = position

    def __reduce__(self):
        return (InvalidNucleotideError, (self.character, self.position))


class InvalidKmerError(DnaError):
    """A k-mer had an unsupported length or contained invalid characters."""


class FastqFormatError(DnaError):
    """A FASTQ/FASTA record could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        location = "" if line_number is None else f" (line {line_number})"
        super().__init__(f"{message}{location}")
        self.message = message
        self.line_number = line_number

    def __reduce__(self):
        return (FastqFormatError, (self.message, self.line_number))


class AssemblyError(ReproError):
    """Base class for errors raised by the assembly pipeline."""


class GraphFormatError(AssemblyError):
    """A de Bruijn graph structure violated a format invariant."""


class PipelineConfigError(AssemblyError):
    """The assembly pipeline was configured inconsistently."""


class NoKmersError(AssemblyError):
    """The reads hold no (k+1)-mer, so there is no de Bruijn graph to build.

    Raised by DBG construction for empty input, and for input whose
    every read is shorter than k + 1 bases between ``N``s.
    """

    def __init__(self, num_reads: int, k: int) -> None:
        detail = (
            f"none of its {num_reads} reads has {k + 1} consecutive "
            f"A/C/G/T bases (k={k})"
            if num_reads
            else "it has no reads"
        )
        super().__init__(f"no (k+1)-mer in the input: {detail}")
        self.num_reads = num_reads
        self.k = k

    def __reduce__(self):
        return (NoKmersError, (self.num_reads, self.k))


class QualityError(ReproError):
    """Base class for errors raised during quality assessment."""


class AlignmentError(QualityError):
    """Contig-to-reference alignment could not be performed."""
