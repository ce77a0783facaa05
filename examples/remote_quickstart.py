#!/usr/bin/env python3
"""Remote quickstart: the same client API, real TCP sockets.

Launches a localhost deployment of real daemons — two replicated file
servers over a companion pair of block servers, each behind its own TCP
port — then drives the exact quickstart loop over the wire: create,
commit, race two updates, kill a daemon mid-run and keep going through
its companion.  The only line that differs from the simulated
quickstart is the one that builds the cluster.

Run:  python examples/remote_quickstart.py
"""

from repro.core.pathname import PagePath
from repro.errors import CommitConflict
from repro.net import build_tcp_cluster, connect
from repro.obs import Recorder

ROOT = PagePath.ROOT


def main() -> None:
    recorder = Recorder()
    cluster = build_tcp_cluster(servers=2, seed=42, recorder=recorder)
    try:
        run(cluster, recorder)
    finally:
        cluster.stop()
    print("\nall daemons stopped.")


def run(cluster, recorder) -> None:
    print("daemons listening:")
    for name in cluster.network.nodes():
        host, port = cluster.network.address_of(name)
        print(f"  {name:<6} {host}:{port}")

    client = cluster.client("myhost")

    # --- files and versions, over the wire ---------------------------------
    essay = client.create_file(b"Draft 1 of my essay")
    print("\ncreated file:", essay)
    print("read:", client.read(essay))

    update = client.begin(essay)
    update.write(ROOT, b"Draft 2, improved")
    chapter = update.append_page(ROOT, b"Chapter one lives in its own page")
    update.commit()
    print("after commit:", client.read(essay))
    print("chapter page:", client.read(essay, chapter))

    # --- optimistic concurrency is wire-agnostic ----------------------------
    counter = client.create_file(b"0")

    def increment(u):
        u.write(ROOT, b"%d" % (int(u.read(ROOT)) + 1))

    ua = client.begin(counter)
    ub = client.begin(counter)
    ua.write(ROOT, b"%d" % (int(ua.read(ROOT)) + 1))
    ub.write(ROOT, b"%d" % (int(ub.read(ROOT)) + 1))
    ua.commit()
    try:
        ub.commit()
    except CommitConflict as conflict:
        print("second committer conflicted, as it must:", conflict)
    client.transact(counter, increment)
    print("counter after one manual + one transacted increment:",
          client.read(counter))

    # --- kill a daemon, keep committing -------------------------------------
    victim = cluster.pair.a
    victim.crash()  # a real socket teardown: connections reset and refused
    print(f"\nkilled block daemon {victim.name!r} mid-run")
    client.transact(essay, lambda u: u.write(ROOT, b"Draft 3, post-crash"))
    print("committed through the companion:", client.read(essay))
    victim.restart()
    victim.resync()
    print("daemon restarted and resynced; pair consistent:",
          cluster.pair.consistent())

    # --- a second client from the spec string alone --------------------------
    spec = cluster.spec()
    print("\nspec:", spec)
    from repro.client.api import FileClient

    network, service_port = connect(spec)
    other = FileClient(network, "otherhost", service_port)
    print("second client reads the essay:", other.read(essay))

    failovers = recorder.metrics.counters.get("rpc.failovers")
    requests = recorder.metrics.counters.get("net.tcp.requests")
    print(f"\nwire totals: {requests.value} requests, "
          f"{failovers.value if failovers else 0} failovers")
    assert failovers is not None and failovers.value > 0


if __name__ == "__main__":
    main()
