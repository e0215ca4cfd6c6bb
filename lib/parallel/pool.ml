module Log = Tka_obs.Log
module Metrics = Tka_obs.Metrics
module Trace = Tka_obs.Trace
module J = Tka_obs.Jsonx

let log_src = Log.Src.create "parallel" ~doc:"work-stealing domain pool"
let c_batches = Metrics.Counter.make "pool.batches"
let c_tasks = Metrics.Counter.make "pool.tasks"

type task = unit -> unit

type t = {
  jobs : int;
  mutex : Mutex.t;
  has_work : Condition.t;
  tasks : task Queue.t;
  mutable live : bool;
  mutable workers : unit Domain.t array; (* length jobs - 1 *)
}

(* ------------------------------------------------------------------ *)
(* Worker loop                                                        *)
(* ------------------------------------------------------------------ *)

(* Workers idle on [has_work]; each task is a closure that never raises
   (batches wrap their bodies). Shutdown is signalled by [live = false]
   plus a broadcast; workers drain the queue before exiting so a
   shutdown cannot strand queued work. *)
let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.tasks && t.live do
    Condition.wait t.has_work t.mutex
  done;
  if Queue.is_empty t.tasks then begin
    (* not live and nothing left *)
    Mutex.unlock t.mutex
  end
  else begin
    let task = Queue.pop t.tasks in
    Mutex.unlock t.mutex;
    task ();
    worker_loop t
  end

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      has_work = Condition.create ();
      tasks = Queue.create ();
      live = true;
      workers = [||];
    }
  in
  if jobs > 1 then
    t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  Log.debug log_src (fun m ->
      m ~fields:[ Log.int "jobs" jobs ] "pool created with %d job(s)" jobs);
  t

let size t = t.jobs

let shutdown t =
  let ws =
    Mutex.lock t.mutex;
    let ws = t.workers in
    t.live <- false;
    t.workers <- [||];
    Condition.broadcast t.has_work;
    Mutex.unlock t.mutex;
    ws
  in
  Array.iter Domain.join ws;
  if Array.length ws > 0 then
    Log.debug log_src (fun m ->
        m
          ~fields:[ Log.int "workers" (Array.length ws) ]
          "pool shut down (%d worker(s) joined)" (Array.length ws))

(* ------------------------------------------------------------------ *)
(* Batches                                                            *)
(* ------------------------------------------------------------------ *)

type batch = {
  remaining : int Atomic.t;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  done_mutex : Mutex.t;
  done_cond : Condition.t;
}

(* Run every thunk in [thunks] on the pool and wait for all of them.
   The submitting domain helps execute queued tasks (of any batch —
   that is what makes nested submission deadlock-free) until its own
   batch has drained. The first exception recorded by any thunk is
   re-raised in the submitter once the batch completes; the remaining
   thunks still run, so partial side effects are never silently
   abandoned mid-batch. *)
let run_batch t (thunks : task array) =
  let n = Array.length thunks in
  if n = 0 then ()
  else if t.jobs = 1 || n = 1 || not t.live then Array.iter (fun f -> f ()) thunks
  else begin
    Metrics.Counter.incr c_batches;
    Metrics.Counter.add c_tasks n;
    Trace.with_span ~cat:"pool" ~args:[ ("tasks", J.Int n) ] "pool.batch"
    @@ fun () ->
    Log.debug log_src (fun m ->
        m ~fields:[ Log.int "tasks" n ] "batch submitted: %d task(s)" n);
    let b =
      {
        remaining = Atomic.make n;
        failure = Atomic.make None;
        done_mutex = Mutex.create ();
        done_cond = Condition.create ();
      }
    in
    let wrapped f () =
      (try f ()
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set b.failure None (Some (e, bt))));
      if Atomic.fetch_and_add b.remaining (-1) = 1 then begin
        Mutex.lock b.done_mutex;
        Condition.broadcast b.done_cond;
        Mutex.unlock b.done_mutex
      end
    in
    Mutex.lock t.mutex;
    Array.iter (fun f -> Queue.add (wrapped f) t.tasks) thunks;
    Condition.broadcast t.has_work;
    Mutex.unlock t.mutex;
    (* help until our batch is done *)
    let finished () = Atomic.get b.remaining = 0 in
    let rec help () =
      if not (finished ()) then begin
        Mutex.lock t.mutex;
        let job = if Queue.is_empty t.tasks then None else Some (Queue.pop t.tasks) in
        Mutex.unlock t.mutex;
        match job with
        | Some task ->
          task ();
          help ()
        | None ->
          (* everything still pending is running on a worker *)
          Mutex.lock b.done_mutex;
          while not (finished ()) do
            Condition.wait b.done_cond b.done_mutex
          done;
          Mutex.unlock b.done_mutex
      end
    in
    help ();
    Log.debug log_src (fun m ->
        m ~fields:[ Log.int "tasks" n ] "batch drained: %d task(s)" n);
    match Atomic.get b.failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Chunked primitives                                                 *)
(* ------------------------------------------------------------------ *)

let chunk_size t ?chunk n =
  match chunk with
  | Some c -> max 1 c
  | None -> max 1 (n / (t.jobs * 8))

let parallel_for ?chunk t ~lo ~hi body =
  let n = hi - lo in
  if n <= 0 then ()
  else if t.jobs = 1 || not t.live then
    for i = lo to hi - 1 do
      body i
    done
  else begin
    let c = chunk_size t ?chunk n in
    let chunks = (n + c - 1) / c in
    let thunks =
      Array.init chunks (fun ci ->
          let first = lo + (ci * c) in
          let last = min hi (first + c) - 1 in
          fun () ->
            for i = first to last do
              body i
            done)
    in
    run_batch t thunks
  end

let iter ?chunk t f a =
  if t.jobs = 1 || not t.live then Array.iter f a
  else parallel_for ?chunk t ~lo:0 ~hi:(Array.length a) (fun i -> f a.(i))

let map ?chunk t f a =
  if t.jobs = 1 || not t.live then Array.map f a
  else begin
    let n = Array.length a in
    let out = Array.make n None in
    parallel_for ?chunk t ~lo:0 ~hi:n (fun i -> out.(i) <- Some (f a.(i)));
    Array.map
      (function Some v -> v | None -> assert false (* every index ran *))
      out
  end

(* ------------------------------------------------------------------ *)
(* Default pool                                                       *)
(* ------------------------------------------------------------------ *)

let env_jobs () =
  match Sys.getenv_opt "TKA_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> Some j
    | Some _ | None -> None)

let env_jobs_error () =
  match Sys.getenv_opt "TKA_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> None
    | Some j -> Some (Printf.sprintf "TKA_JOBS must be >= 1 (got %d)" j)
    | None -> Some (Printf.sprintf "TKA_JOBS must be a positive integer (got %S)" s))

let requested_jobs : int option ref = ref None

let default_jobs () =
  match !requested_jobs with
  | Some j -> j
  | None -> (
    match env_jobs () with
    | Some j -> j
    | None -> max 1 (Domain.recommended_domain_count () - 1))

(* The default pool is created lazily and torn down at exit so worker
   domains never outlive the main domain. Guarded by a mutex: bench /
   tests flip the size around timed regions. *)
let default_mutex = Mutex.create ()
let default_pool : t option ref = ref None
let exit_hook_installed = ref false

let get_default () =
  Mutex.lock default_mutex;
  let jobs = default_jobs () in
  let pool =
    match !default_pool with
    | Some p when p.jobs = jobs -> p
    | other ->
      (match other with Some p -> Mutex.unlock default_mutex; shutdown p; Mutex.lock default_mutex | None -> ());
      let p = create ~jobs in
      default_pool := Some p;
      if not !exit_hook_installed then begin
        exit_hook_installed := true;
        at_exit (fun () ->
            Mutex.lock default_mutex;
            let p = !default_pool in
            default_pool := None;
            Mutex.unlock default_mutex;
            Option.iter shutdown p)
      end;
      p
  in
  Mutex.unlock default_mutex;
  pool

let set_default_jobs j =
  let j = max 1 j in
  Mutex.lock default_mutex;
  requested_jobs := Some j;
  let stale =
    match !default_pool with
    | Some p when p.jobs <> j ->
      default_pool := None;
      Some p
    | _ -> None
  in
  Mutex.unlock default_mutex;
  Option.iter shutdown stale
