import pytest

from bench import daemon

STARTUP = [
    "disk backend: data dir /tmp/d, journal sync via fdatasync (139 us median; "
    "probed fsync 161us, fdatasync 139us, o_dsync 132us), tuned commit window 0.28 ms\n",
    "recovered 16 file(s) from the on-disk file table (block 1)\n",
    "serving single-pair deployment: 1 file server(s), async event-loop daemons on 127.0.0.1\n",
    "REPRO_SPEC=service:3f9a=127.0.0.1:40001;block:9c21=127.0.0.1:40002,127.0.0.1:40003\n",
]


def test_parse_startup_picks_spec_sync_primitive_and_recovered_files():
    startup = daemon.parse_startup(STARTUP)
    assert startup.spec.startswith("service:3f9a=127.0.0.1:40001;block:")
    assert startup.sync_primitive == "fdatasync"
    assert startup.sync_us == 139
    assert startup.recovered_files == 16


def test_parse_startup_without_a_spec_line_fails():
    with pytest.raises(daemon.DaemonFailed):
        daemon.parse_startup(STARTUP[:3])


def test_the_command_line_lives_in_one_function():
    command = daemon.serve_command(7, "/data", use_async=True)
    assert command[1:5] == ["-m", "repro", "serve", "--async"]
    assert command[-6:] == ["--servers", "1", "--seed", "7", "--data-dir", "/data"]
    assert "--async" not in daemon.serve_command(7, "/data", use_async=False)


def test_pinning_prefers_the_cpu_that_serves_the_disk():
    from bench.quiet import disk_irq_cpu

    table = (
        "           CPU0       CPU1\n"
        " 37:          5      39501   PCI-MSIX-0000:00:02.0   1-edge      virtio1-req.0\n"
        " 44:      20747          2   PCI-MSIX-0000:00:05.0   1-edge      virtio4-rx\n"
    )
    assert disk_irq_cpu({0, 1}, table) == 1
    assert disk_irq_cpu({0}, table) == 0  # not allowed to use CPU 1
    assert disk_irq_cpu({0, 1, 2}, "") == 2  # no table: the last CPU
