"""fork_map: a function over a few items in forked worker processes.

Built on os.fork and os.pipe alone: no process pool, so no pool threads, no
start-up and shut-down handshakes and no import of the standard library's
pool package.  verify imports this module only when it forks, so no other
process compiles it.
"""

from __future__ import annotations

import os
import pickle
import select


def fork_map(body, items: tuple, workers: int) -> list:
    """body(item) for every item, on `workers` forked processes, in items order.

    The items' indices wait in one task pipe, a byte each, in order; every
    worker reads the next until the pipe runs dry, then pickles {index:
    result or exception} into its own result pipe and leaves through
    os._exit, on every path, so it runs none of this process's exit
    handlers or finally blocks and flushes none of its buffers.  The first
    failing item in order raises its error here.  A worker that dies without
    a complete result (a signal, a non-zero exit, a truncated pickle) raises
    ChildProcessError naming its exit status and the items left without a
    result; the other workers are then killed.  Every worker is reaped
    before this returns or raises."""
    tasks, feed = os.pipe()
    os.write(feed, bytes(range(len(items))))
    os.close(feed)
    pipes: dict[int, tuple[int, list[bytes]]] = {}  # result pipe -> (pid, bytes so far)
    results: dict = {}
    try:
        for _ in range(workers):
            fd, out = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    done = {}
                    while index := os.read(tasks, 1):
                        try:
                            done[index[0]] = body(items[index[0]])
                        except Exception as exc:
                            done[index[0]] = exc
                    with open(out, "wb") as fh:
                        pickle.dump(done, fh)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(out)
            pipes[fd] = pid, []
        while pipes:
            for fd in select.select(list(pipes), [], [])[0]:
                if chunk := os.read(fd, 1 << 16):
                    pipes[fd][1].append(chunk)
                    continue
                status = os.waitstatus_to_exitcode(os.waitpid(pipes[fd][0], 0)[1])
                chunks = pipes.pop(fd)[1]
                os.close(fd)
                try:  # a truncated pickle fails in more ways than one
                    got = pickle.loads(b"".join(chunks)) if status == 0 else None
                except Exception:
                    got = None
                if not isinstance(got, dict):
                    how = f"killed by signal {-status}" if status < 0 else f"exit status {status}"
                    lost = [str(item) for i, item in enumerate(items) if i not in results]
                    raise ChildProcessError(f"a worker process died ({how}) without a complete "
                                            f"result; no result for {', '.join(lost)}")
                results.update(got)
    finally:
        os.close(tasks)
        if pipes:  # only a failed run gets here with workers left; signal costs 1 ms
            import signal
        for fd, (pid, _) in pipes.items():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    outcomes = [results[i] for i in range(len(items))]
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes
