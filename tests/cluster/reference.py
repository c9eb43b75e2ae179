"""The naive references the cluster parity suites compare against: one
per entry point -- :func:`replay_reference` for the offline replay
(:meth:`Cluster.replay_compiled`), :func:`process_reference` for the
live batches (:meth:`Cluster.process_batch`). Both serve a request with
``engine.process_fast`` and record its packed code with
``stats.record_code``."""

from __future__ import annotations

from repro.cache.stats import OP_CODES, OUTCOME_DEAD


def naive_windows(total, epoch, injector):
    """``(start, stop)`` windows between every offset a hook may be due
    at: the rebalance epochs, plus -- with a fault injector -- its
    sampling grid, its event offsets and ``total``. Computed here from
    the definitions (call after ``injector.begin``, which fixes the
    sampling stride), so the oracle does not depend on how production
    lays its barriers out."""
    stops = {total}
    if epoch:
        stops.update(range(epoch, total + 1, epoch))
    if injector is not None:
        stops.update(range(injector.sample_step, total, injector.sample_step))
        stops.update(
            event.at for event in injector.schedule.events if 0 < event.at < total
        )
    stops = sorted(stop for stop in stops if stop > 0)
    return list(zip([0] + stops[:-1], stops))


def replay_reference(cluster, trace):
    """Replay ``trace`` across ``cluster`` one request at a time.

    Deliberately naive, and deliberately sharing nothing with the
    production path (:meth:`repro.cluster.Cluster.replay_compiled`) but
    the ring, the engines and the rebalancer/injector hooks: no routing
    plan, no partitioning, no tallies. Every request walks the ring for
    its replica set (memoized per key until the live set changes), takes
    its round-robin turn (a global per-key occurrence count that never
    resets), and is recorded on its shard's registry as it happens.

    The windows are :func:`naive_windows`. After each window the hooks
    run in the barrier order -- sample, rebalance epoch, fault events.
    Under
    ``failover`` routing follows the live successors; under
    ``miss-through`` it stays the all-live walk and a request landing on
    a dead shard is recorded as ``OUTCOME_DEAD`` without reaching an
    engine. Returns the cluster-wide aggregate registry.
    """
    injector, rebalancer = cluster.fault_injector, cluster.rebalancer
    epoch = rebalancer.config.epoch_requests if rebalancer is not None else 0
    if injector is not None:
        injector.begin(len(trace))
    windows = naive_windows(len(trace), epoch, injector)
    failover = injector is not None and injector.policy == "failover"
    ring, replication = cluster.ring, cluster.replication
    replicas_of_key = {}
    routed_live = None
    turn_of_key = [0] * len(trace.key_table)
    # Plain Python rows: this walk indexes one request at a time.
    keys, key_ids = trace.keys.tolist(), trace.key_ids.tolist()
    apps = [trace.app_table[app_id] for app_id in trace.app_ids.tolist()]
    ops = trace.op_codes.tolist()
    classes = trace.slab_classes.tolist()
    chunks, items = trace.chunk_bytes.tolist(), trace.item_bytes.tolist()
    for start, stop in windows:
        live = list(cluster.live_mask())
        if failover and live != routed_live:
            replicas_of_key.clear()
            routed_live = live
        for i in range(start, stop):
            key, key_id = keys[i], key_ids[i]
            choices = replicas_of_key.get(key_id)
            if choices is None:
                choices = replicas_of_key[key_id] = (
                    ring.shards_for_live(key, replication, live)
                    if failover
                    else ring.shards_for(key, replication)
                )
            shard = choices[turn_of_key[key_id] % len(choices)]
            turn_of_key[key_id] += 1
            server = cluster.servers[shard]
            # Restarts swap in fresh engines: look the engine up each time.
            engine = server.engines[apps[i]]
            op = ops[i]
            if live[shard]:
                code = engine.process_fast(
                    key, op, classes[i], chunks[i], items[i]
                )
            else:
                code = OUTCOME_DEAD
            server.stats.record_code(engine.app, op, code)
        if injector is not None:
            injector.on_barrier(stop)
        if epoch and stop % epoch == 0:
            rebalancer.on_epoch()
        if injector is not None:
            injector.apply_events(stop)
    if injector is not None:
        injector.finish(len(trace))
    return cluster.aggregate_stats()


def process_reference(cluster, request):
    """Handle one object-API ``request`` on ``cluster``, the naive way.

    The walk :meth:`repro.cluster.Cluster.process_batch` must equal
    request for request. It shares only the ring, the engines, the
    replica round-robin counters (``router.spread``) and the request
    clock with that path: the ring is walked per request -- live
    successors under ``failover``, the all-live walk otherwise -- with
    no memoized positions or successor columns; the request's row comes
    from :meth:`~repro.cache.slabs.SlabGeometry.row` and its packed code
    is recorded on the shard's registry as it happens. A request landing
    on a dead shard (``miss-through``) is recorded as ``OUTCOME_DEAD``
    without reaching an engine. After every request the clock ticks and
    a rebalance epoch fires if it is due (armed fault barriers on the
    live path are pinned by ``test_barrier.py``'s cross-driver property
    instead). Returns the packed outcome code.
    """
    injector = cluster.fault_injector
    if injector is not None and injector.policy == "failover":
        replicas = cluster.ring.shards_for_live(
            request.key, cluster.replication, injector.live
        )
    else:
        replicas = cluster.ring.shards_for(request.key, cluster.replication)
    if cluster.replication == 1:
        shard = replicas[0]
    else:
        spread = cluster.router.spread
        turn = spread.get(request.key, 0)
        spread[request.key] = turn + 1
        shard = replicas[turn % len(replicas)]
    server = cluster.servers[shard]
    op = OP_CODES[request.op]
    if injector is not None and not injector.live[shard]:
        code = OUTCOME_DEAD
    else:
        engine = server.engines[request.app]
        code = engine.process_fast(
            request.key,
            op,
            *engine.geometry.row(request.key_size, request.value_size),
        )
    server.stats.record_code(request.app, op, code)
    cluster.object_requests += 1
    rebalancer = cluster.rebalancer
    if rebalancer is not None:
        epoch = rebalancer.config.epoch_requests
        if epoch and cluster.object_requests % epoch == 0:
            rebalancer.on_epoch()
    return code
