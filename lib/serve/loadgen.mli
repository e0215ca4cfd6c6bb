(** Closed-loop load generator for the [tka serve] bench and smoke
    tests.

    Spawns [clients] threads, each with its own connection (= its own
    daemon session). Every client loads the same design, then issues
    [requests] back-to-back calls drawn deterministically from a 6:3:1
    analyze/what-if/ECO mix (a per-client counter-based PRNG — same
    config, same schedule, every run), recording per-request wall
    latency and the cache counters the replies carry.

    The report aggregates throughput (completed replies over the
    request-phase wall time), exact latency percentiles over every
    recorded sample, the admission rejections ([overloaded]/[timeout]
    replies — counted, not retried: a closed loop measures the
    daemon's refusal behaviour, not a retry policy's), and the shared
    victim cache's hit rate as seen by the clients. *)

type report = {
  lg_clients : int;
  lg_requests : int;  (** replies received, all outcomes *)
  lg_ok : int;
  lg_overloaded : int;
  lg_timeout : int;
  lg_errors : int;  (** other [Error] replies *)
  lg_analyze : int;
  lg_whatif : int;
  lg_eco : int;
  lg_elapsed_s : float;
  lg_qps : float;
  lg_mean_ms : float;
  lg_p50_ms : float;
  lg_p95_ms : float;
  lg_p99_ms : float;
  lg_max_ms : float;
  lg_cache_hits : int;
  lg_cache_misses : int;
  lg_cache_hit_rate : float;  (** hits / (hits + misses); 0 when idle *)
}

val run :
  connect:(unit -> Client.t) ->
  netlist:string ->
  ?k:int ->
  ?clients:int ->
  ?requests:int ->
  unit ->
  report
(** [connect] opens a fresh connection (called once per client, from
    the client's own thread). [netlist] is the design body each
    session loads. Defaults: [k] 10, [clients] 4, [requests] 25 per
    client.
    @raise Client.Transport if a connection or the load call fails. *)

val to_json : report -> Proto.J.t
(** The [serve] bench section: [qps], [p50_ms]/[p95_ms]/[p99_ms],
    [cache_hit_rate] and friends. *)
