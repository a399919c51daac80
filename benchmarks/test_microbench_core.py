"""Microbenchmarks: the hot paths of the KAR stack.

These quantify the claims the paper makes about simplicity/performance
qualitatively: a KAR switch's forwarding decision is one modulo (plus a
strategy branch), encoding is cheap enough for per-flow controller use,
and the simulator sustains enough events/second to run the full
evaluation on a laptop.
"""

import random

from repro.rns import Hop, RouteEncoder
from repro.rns.wire import decode_header, encode_header
from repro.sim import KarHeader, Packet, Simulator
from repro.switches import KarSwitch, NotInputPort
from repro.topology import fifteen_node


def test_microbench_crt_encode(benchmark):
    encoder = RouteEncoder()
    switches = [10, 7, 13, 29, 11, 23, 31, 17, 37, 41]  # Table 1 full
    ports = [1, 2, 4, 0, 1, 2, 0, 1, 2, 0]

    route = benchmark(encoder.encode_path, switches, ports)
    assert route.bit_length == 43


def test_microbench_incremental_hop(benchmark):
    encoder = RouteEncoder()
    base = encoder.encode_path([10, 7, 13, 29], [1, 2, 4, 0])

    extended = benchmark(encoder.with_hop, base, Hop(11, 1))
    assert extended.encodes(11)


def test_microbench_switch_decision(benchmark):
    # The per-packet data plane: modulo + NIP strategy, no I/O.
    sim = Simulator()
    switch = KarSwitch("SW", sim, 5, 13, NotInputPort(), random.Random(1))
    packet = Packet(src_host="a", dst_host="b", size_bytes=100,
                    kar=KarHeader(route_id=44))
    strategy = switch.strategy
    rng = random.Random(2)

    def decide():
        return strategy.select_port(switch, packet, 0, 44 % 13, rng)

    port, deflected = benchmark(decide)
    assert port is not None or port is None  # ran


def test_microbench_wire_roundtrip(benchmark):
    header = KarHeader(route_id=5_337_651_234_567, modulus=2**43, ttl=64)

    def roundtrip():
        return decode_header(encode_header(header))

    decoded, _ = benchmark(roundtrip)
    assert decoded.route_id == header.route_id


def test_microbench_event_engine(benchmark):
    # Pure engine throughput: schedule/fire 10k no-op events.
    def run_10k():
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(i * 1e-6, lambda: None)
        sim.run()
        return sim.events_processed

    assert benchmark(run_10k) == 10_000


def test_microbench_packet_forwarding_throughput(benchmark):
    # End-to-end dataplane rate: how many simulated packet-hops per
    # wall-clock second the whole stack sustains (UDP probe over the
    # 15-node network).
    def run_probe():
        from repro.runner import KarSimulation

        ks = KarSimulation(fifteen_node(rate_mbps=100.0, delay_s=0.0002),
                           deflection="nip", protection="partial", seed=1)
        src, sink = ks.add_udp_probe(rate_pps=2000, duration_s=1.0)
        src.start()
        ks.run(until=1.5)
        return sink.received

    received = benchmark.pedantic(run_probe, rounds=1, iterations=1)
    assert received == 2001
