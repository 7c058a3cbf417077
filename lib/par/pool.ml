type t = {
  mutex : Mutex.t;
  changed : Condition.t;
      (* broadcast on every queue push, task completion and shutdown; both
         workers and batch-waiting callers sleep on it *)
  queue : (unit -> unit) Queue.t;
  mutable live : bool;
  jobs : int;
  mutable domains : unit Domain.t list;
  stop : bool Atomic.t;
      (* cooperative stop: checked before each queued task starts, so
         in-flight tasks drain and their timings flush, while not-yet-
         started tasks are skipped (an Atomic because it is flipped from
         a signal handler) *)
}

let default_jobs () = max 1 (Domain.recommended_domain_count ())

let worker t =
  let rec loop () =
    Mutex.lock t.mutex;
    while t.live && Queue.is_empty t.queue do
      Condition.wait t.changed t.mutex
    done;
    match Queue.take_opt t.queue with
    | Some task ->
        Mutex.unlock t.mutex;
        (* tasks are wrapped by parallel_map and never raise *)
        task ();
        loop ()
    | None ->
        (* only reachable when [live] went false *)
        Mutex.unlock t.mutex
  in
  loop ()

let create ?jobs () =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let t =
    {
      mutex = Mutex.create ();
      changed = Condition.create ();
      queue = Queue.create ();
      live = true;
      jobs;
      domains = [];
      stop = Atomic.make false;
    }
  in
  t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.mutex;
  t.live <- false;
  Condition.broadcast t.changed;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* --- graceful stop --------------------------------------------------------- *)

exception Interrupted of { completed : int; total : int }

let () =
  Printexc.register_printer (function
    | Interrupted { completed; total } ->
        Some (Fmt.str "Par.Pool.Interrupted (%d/%d tasks completed)" completed total)
    | _ -> None)

let request_stop t = Atomic.set t.stop true

let with_sigint t f =
  let prev =
    Sys.signal Sys.sigint
      (Sys.Signal_handle
         (fun _ ->
           if Atomic.get t.stop then exit 130;
           request_stop t;
           prerr_endline
             "interrupt: draining in-flight tasks (^C again to abort)"))
  in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigint prev) f

let parallel_map (type a b) ?timings ?label t (f : a -> b) (xs : a array) : b array =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let results : b option array = Array.make n None in
    let errors : (exn * Printexc.raw_backtrace) option array = Array.make n None in
    let remaining = ref n in
    let skipped = ref 0 in
    (* [submitted] is stamped at enqueue so queue wait (submit -> pickup)
       and execution time stay separate in the timings and metrics *)
    let run_one i ~submitted =
      (* stop requested: started tasks drain, queued ones are dropped *)
      let skip = Atomic.get t.stop in
      if not skip then begin
        let started = Unix.gettimeofday () in
        let waited = started -. submitted in
        (match f xs.(i) with
        | v -> results.(i) <- Some v
        | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
        let elapsed = Unix.gettimeofday () -. started in
        (match timings with
        | None -> ()
        | Some tg ->
            let name = match label with Some g -> g xs.(i) | None -> Fmt.str "task %d" i in
            Timings.record tg ~label:name ~started ~waited ~elapsed);
        let m = Obs.Metrics.default in
        Obs.Metrics.observe m "pool_task_queue_wait_seconds" waited;
        Obs.Metrics.observe m "pool_task_run_seconds" elapsed
      end;
      Mutex.lock t.mutex;
      if skip then incr skipped;
      decr remaining;
      Condition.broadcast t.changed;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    let submitted = Unix.gettimeofday () in
    for i = 0 to n - 1 do
      Queue.add (fun () -> run_one i ~submitted) t.queue
    done;
    Condition.broadcast t.changed;
    Mutex.unlock t.mutex;
    (* the caller is a pool member too: instead of blocking it drains the
       queue, which both adds a unit of concurrency and makes nested
       batches deadlock-free (any waiter makes progress by itself) *)
    let rec help () =
      Mutex.lock t.mutex;
      if !remaining = 0 then Mutex.unlock t.mutex
      else
        match Queue.take_opt t.queue with
        | Some task ->
            Mutex.unlock t.mutex;
            task ();
            help ()
        | None ->
            Condition.wait t.changed t.mutex;
            Mutex.unlock t.mutex;
            help ()
    in
    help ();
    if !skipped > 0 then begin
      Obs.Metrics.add Obs.Metrics.default "pool_tasks_skipped_total" !skipped;
      raise (Interrupted { completed = n - !skipped; total = n })
    end;
    Array.iteri
      (fun _ -> function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.map (function Some v -> v | None -> assert false) results
  end

let parallel_list_map ?timings ?label t f xs =
  Array.to_list (parallel_map ?timings ?label t f (Array.of_list xs))
