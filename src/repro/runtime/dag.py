"""A small DAG job scheduler (dawgz-style, stdlib-only).

A :class:`Job` is a named callable with dependencies on other jobs.
:func:`run_jobs` validates the graph — duplicate names and cycles are
rejected **before** anything executes — then runs it on an
:class:`~repro.runtime.executors.Executor`: jobs whose dependencies are all
done are submitted, completions unlock their children, and the results are
returned keyed by job name (so nothing observable depends on completion
order).

Two affordances matter for the campaign runtime:

* **inline join nodes** — a job created with ``inline=True`` runs in the
  scheduling thread instead of on the executor.  The campaign's
  union-measure step is such a join: it fans out *its own* sharded work to
  the same executor, and running it on a worker would deadlock a
  single-worker pool (the join occupies the only worker while waiting for
  the shards it submitted).
* **failure attribution** — a job that raises aborts the run with a
  :class:`JobFailedError` naming the failing job (``.job_name``) and
  chaining the original exception; jobs not yet submitted are skipped.

:func:`prune` keeps only the ancestors of a set of target jobs, mirroring
``dawgz``'s backward pruning: schedule the jobs a result actually needs.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, wait
from typing import Any, Callable, Iterable, Optional, Sequence

from repro import obs
from repro.runtime.executors import Executor, SerialExecutor


class CyclicDependencyError(RuntimeError):
    """The dependency graph contains a cycle (reported as a name path)."""


class JobFailedError(RuntimeError):
    """A job raised; carries the failing job's name, chains the cause."""

    def __init__(self, job_name: str, cause: BaseException) -> None:
        super().__init__(f"job {job_name!r} failed: {cause}")
        self.job_name = job_name


class Job:
    """A named unit of work with dependencies.

    Parameters
    ----------
    name:
        Unique name within one :func:`run_jobs` call; failure messages and
        the results mapping are keyed by it.
    fn:
        The callable to run.  With ``pass_results=True`` it receives the
        dependency results (``{dependency_name: result}``) as its first
        positional argument, before *args*.
    args:
        Pre-bound positional call arguments.  For a
        :class:`~repro.runtime.executors.ProcessExecutor`, *fn* and all
        arguments must be picklable (use module-level functions, not
        closures).
    deps:
        Jobs that must complete before this one starts.
    inline:
        Run in the scheduling thread instead of on the executor (for join
        nodes that submit their own work to the same executor).
    """

    def __init__(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        args: Sequence = (),
        deps: Sequence["Job"] = (),
        inline: bool = False,
        pass_results: bool = False,
    ) -> None:
        self.name = str(name)
        self.fn = fn
        self.args = tuple(args)
        self.deps: tuple[Job, ...] = tuple(deps)
        self.inline = inline
        self.pass_results = pass_results

    def after(self, *deps: "Job") -> "Job":
        """Append dependencies (chainable)."""
        self.deps = self.deps + tuple(deps)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Job({self.name!r}, deps={[d.name for d in self.deps]})"


def collect_jobs(jobs: Iterable[Job]) -> list[Job]:
    """All given jobs plus their transitive dependencies, in a stable order.

    The order is first-seen depth-first from the given jobs — deterministic
    for a given call, which keeps submission order (and therefore any
    executor queueing) reproducible.
    """
    seen: dict[int, Job] = {}
    ordered: list[Job] = []

    def visit(job: Job) -> None:
        if id(job) in seen:
            return
        seen[id(job)] = job
        for dep in job.deps:
            visit(dep)
        ordered.append(job)

    for job in jobs:
        visit(job)
    return ordered


def find_cycle(jobs: Iterable[Job]) -> Optional[list[Job]]:
    """Return one dependency cycle as a job path, or ``None``."""
    WHITE, GREY, BLACK = 0, 1, 2
    color: dict[int, int] = {}
    path: list[Job] = []

    def visit(job: Job) -> Optional[list[Job]]:
        color[id(job)] = GREY
        path.append(job)
        for dep in job.deps:
            state = color.get(id(dep), WHITE)
            if state == GREY:
                start = next(i for i, j in enumerate(path) if j is dep)
                return path[start:] + [dep]
            if state == WHITE:
                cycle = visit(dep)
                if cycle is not None:
                    return cycle
        path.pop()
        color[id(job)] = BLACK
        return None

    for job in collect_jobs(jobs):
        if color.get(id(job), WHITE) == WHITE:
            cycle = visit(job)
            if cycle is not None:
                return cycle
    return None


def prune(targets: Iterable[Job]) -> list[Job]:
    """Restrict a graph to the ancestors of *targets* (targets included)."""
    return collect_jobs(targets)


def _invoke(job: Job, dependency_results: dict[str, Any]):
    if job.pass_results:
        return job.fn(dependency_results, *job.args)
    return job.fn(*job.args)


def _invoke_traced(job: Job, dependency_results: dict[str, Any], submitted: float):
    """Worker-side wrapper used when tracing is active.

    Runs the job under an :mod:`repro.obs` capture buffer and returns
    ``(result, telemetry, submitted, started, ended)`` so the scheduling
    thread can emit the job span (with its queue/run durations) and splice
    the worker-side spans under it.  Module-level for pickling.
    """
    started = time.time()
    result, telemetry = obs.run_captured(_invoke, job, dependency_results)
    return result, telemetry, submitted, started, time.time()


def _finish_traced(job: Job, wrapped) -> Any:
    """Scheduler-side join of a traced job: emit its span, return the result."""
    result, telemetry, submitted, started, ended = wrapped
    span_id = obs.record_span(
        "dag.job",
        started,
        ended,
        job=job.name,
        queue_s=started - submitted,
    )
    obs.splice(telemetry, parent=span_id)
    obs.add_counter("dag.jobs", 1)
    obs.add_counter("dag.queue_s", started - submitted)
    obs.add_counter("dag.run_s", ended - started)
    return result


def run_jobs(
    jobs: Iterable[Job], executor: Optional[Executor] = None
) -> dict[str, Any]:
    """Execute a job graph; return ``{job name: result}``.

    The graph (the given jobs plus transitive dependencies) is validated
    first: duplicate names and cyclic dependencies raise before any job
    runs.  Ready jobs are submitted to *executor* (inline jobs run in the
    scheduling thread); a failing job aborts the run with a
    :class:`JobFailedError` naming it.
    """
    executor = executor if executor is not None else SerialExecutor()
    trace = obs.trace_active()
    graph = collect_jobs(jobs)
    names = [job.name for job in graph]
    if len(set(names)) != len(names):
        duplicates = sorted({name for name in names if names.count(name) > 1})
        raise ValueError(f"duplicate job names: {duplicates}")
    cycle = find_cycle(graph)
    if cycle is not None:
        raise CyclicDependencyError(
            "cyclic dependency: " + " -> ".join(job.name for job in cycle)
        )

    results: dict[str, Any] = {}
    blocked = {job.name: {dep.name for dep in job.deps} for job in graph}
    by_name = {job.name: job for job in graph}
    pending: dict[Any, Job] = {}
    #: Submission sequence per future — completion waves are processed in
    #: this order so multi-failure attribution is deterministic (``wait``
    #: returns an unordered set).
    submitted_at: dict[Any, int] = {}

    def dependency_results(job: Job) -> dict[str, Any]:
        return {dep.name: results[dep.name] for dep in job.deps}

    def drain_completions(
        done, inline_failure: Optional[tuple[Job, BaseException]] = None
    ) -> list[tuple[Job, Any]]:
        """Process a completion wave; on failure, attribute deterministically.

        ``wait`` hands back an unordered set, and with racing failures the
        first wave may not even contain the first-submitted one — so once
        any failure is seen (from a worker or from an inline job), the
        remaining in-flight futures are drained (they are already running;
        they cannot be cancelled anyway) and the failure with the earliest
        submission index is raised — an inline failure counts as submitted
        after every worker job in flight, since it ran after their
        submission.  Error attribution is therefore a function of the
        graph, not of thread timing.
        """
        completions: list[tuple[Job, Any]] = []
        failures: list[tuple[float, Job, BaseException]] = []
        if inline_failure is not None:
            failures.append((float("inf"),) + tuple(inline_failure))

        def process(wave) -> None:
            for future in sorted(wave, key=submitted_at.__getitem__):
                job = pending.pop(future)
                error = future.exception()
                if error is not None:
                    failures.append((submitted_at[future], job, error))
                elif trace:
                    completions.append((job, _finish_traced(job, future.result())))
                else:
                    completions.append((job, future.result()))

        process(done)
        if failures and pending:
            process(wait(pending)[0])
        if failures:
            _, job, error = min(failures, key=lambda entry: entry[0])
            raise JobFailedError(job.name, error) from error
        return completions

    while blocked or pending:
        ready = [name for name, waiting in blocked.items() if not waiting]
        # Submit executor-bound jobs first so they overlap with any inline
        # join node that is ready in the same wave.
        inline_ready: list[Job] = []
        for name in ready:
            del blocked[name]
            job = by_name[name]
            if job.inline:
                inline_ready.append(job)
            elif trace:
                future = executor.submit(
                    _invoke_traced, job, dependency_results(job), time.time()
                )
                pending[future] = job
                submitted_at[future] = len(submitted_at)
            else:
                future = executor.submit(_invoke, job, dependency_results(job))
                pending[future] = job
                submitted_at[future] = len(submitted_at)

        completed: list[tuple[Job, Any]] = []
        for job in inline_ready:
            try:
                if trace:
                    with obs.span("dag.job", job=job.name, inline=True):
                        value = _invoke(job, dependency_results(job))
                    obs.add_counter("dag.inline_jobs", 1)
                else:
                    value = _invoke(job, dependency_results(job))
                completed.append((job, value))
            except Exception as error:  # KeyboardInterrupt/SystemExit propagate
                drain_completions((), inline_failure=(job, error))
        if not completed:
            if not pending:
                break
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            completed.extend(drain_completions(done))

        for job, result in completed:
            results[job.name] = result
            for waiting in blocked.values():
                waiting.discard(job.name)

    return results
