#!/usr/bin/env python
"""Test-floor master demo: priorities, preemption, live streams.

Starts a one-slot master on a background thread, then plays three
operators sharing it: a long low-priority shmoo grabs the slot, a
high-priority BER characterization preempts it mid-sweep (the
shmoo parks at a cell boundary and auto-resumes later), and an eye
capture queues in between. A subscriber watches every job's state
changes and partial results stream by, and the final shmoo grid is
verified bit-identical to the direct library call — preemption
never changes numbers.

Run:  python examples/service_demo.py
"""

import time

from repro.service import serve_in_thread
from repro.telemetry import use_registry

SHMOO = {"rates": [2.0, 2.6, 3.2, 3.8, 4.4, 5.0],
         "strobe_fracs": [0.1, 0.3, 0.5, 0.7, 0.9],
         "n_bits": 200, "seed": 3}
BER = {"total_bits": 4000, "n_shards": 4, "seed": 1}
EYE = {"n_bits": 1000, "rate_gbps": 2.5, "seed": 2}

TERMINAL = ("completed", "failed", "aborted")


def wait_done(client, job_id):
    """Poll until *job_id* reaches a terminal state."""
    while True:
        status = client.status(job_id=job_id)
        if status["state"] in TERMINAL:
            return status
        time.sleep(0.05)


def main() -> int:
    # Telemetry is off by default; the service records into the
    # scope open where it starts.
    with use_registry(), serve_in_thread(max_slots=1) as handle:
        operator_a = handle.client()
        operator_b = handle.client()
        watcher = handle.client()
        try:
            watcher.subscribe("job.*")
            print(f"master listening on {handle.address}")
            print(f"job kinds: {operator_a.kinds()}")

            shmoo = operator_a.submit(kind="shmoo", params=SHMOO,
                                      priority=0)
            print(f"\noperator A: shmoo queued as job "
                  f"{shmoo['job_id']} (priority 0)")
            time.sleep(0.3)  # let it get a few cells in

            ber = operator_b.submit(kind="ber", params=BER,
                                    priority=5)
            eye = operator_b.submit(kind="eye", params=EYE,
                                    priority=2)
            print(f"operator B: ber job {ber['job_id']} "
                  f"(priority 5) preempts; eye job "
                  f"{eye['job_id']} (priority 2) queues")

            for client, job in ((operator_b, ber),
                                (operator_b, eye),
                                (operator_a, shmoo)):
                final = wait_done(client, job["job_id"])
                print(f"  job {final['job_id']:>2} "
                      f"({final['kind']}): {final['state']}")

            print("\nevent stream (one line per state change, "
                  "partials summarized):")
            partials = {}
            for event in watcher.drain_events():
                topic = event["event"]
                if topic.endswith(".state"):
                    data = event["data"]
                    print(f"  {topic:<16} -> {data['state']}")
                elif topic.endswith(".partial"):
                    partials[topic] = partials.get(topic, 0) + 1
            for topic, count in sorted(partials.items()):
                print(f"  {topic:<16} -> {count} partial updates")

            result = operator_a.result(
                job_id=shmoo["job_id"])["result"]

            # Preemption is invisible in the numbers: the direct
            # call produces the identical grid.
            from repro.core.minitester import MiniTester
            from repro.host.shmoo import minitester_strobe_rate_shmoo

            direct = minitester_strobe_rate_shmoo(
                MiniTester(), SHMOO["rates"],
                SHMOO["strobe_fracs"], n_bits=SHMOO["n_bits"],
                seed=SHMOO["seed"])
            assert result["passes"] == direct.to_dict()["passes"]
            print("\nshmoo grid (service == direct call, "
                  "bit-identical):")
            print(direct.render())

            snap = watcher.telemetry()
            counters = snap["counters"]
            print(f"\nservice counters: "
                  f"{counters['service.jobs_submitted']} submitted, "
                  f"{counters['service.jobs_completed']} completed, "
                  f"{counters.get('service.preemptions', 0)} "
                  f"preempted, "
                  f"{counters['service.events_published']} events")
        finally:
            operator_a.close()
            operator_b.close()
            watcher.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
