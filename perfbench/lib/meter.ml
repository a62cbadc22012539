(* Clocks, GC counters and runtime-event pause tracking.

   Wall and process-CPU clocks time whole runs; the monotonic nanosecond
   clock times spans. GC pauses come from OCaml 5 runtime events, read by
   a polling thread so the ring buffer cannot overflow during a long run. *)

let wall () = Unix.gettimeofday ()

(* CPU seconds of the whole process: every thread, user plus system. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let now_ns () = Monotonic_clock.now ()

let elapsed_ns since = Int64.to_float (Int64.sub (now_ns ()) since)

(* A growable buffer of samples. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let add r x =
  if r.len = Array.length r.data then begin
    let bigger = Array.make (2 * r.len) 0.0 in
    Array.blit r.data 0 bigger 0 r.len;
    r.data <- bigger
  end;
  r.data.(r.len) <- x;
  r.len <- r.len + 1

let to_array r = Array.sub r.data 0 r.len

(* The [p]th percentile of the samples, 0 when there are none. *)
let pct r p = if r.len = 0 then 0.0 else Arith.percentile (to_array r) p

type gc_delta = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  {
    minor_words = b.Gc.minor_words -. a.Gc.minor_words;
    promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
    minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
    major_collections = b.Gc.major_collections - a.Gc.major_collections;
  }

(* Peak major heap of the process so far, in MB. *)
let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* A pause is an outermost minor collection or major slice, on any
   domain: nested phases are folded into the enclosing one. *)
type pauses = {
  mutable total_ns : float;
  mutable max_ns : float;
  mutable lost : int;
  depth : (int, int * int64) Hashtbl.t;  (** ring -> (depth, start) *)
}

let is_pause = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
  | _ -> false

let pause_callbacks p =
  let runtime_begin ring ts phase =
    if is_pause phase then
      match Hashtbl.find_opt p.depth ring with
      | Some (d, start) when d > 0 -> Hashtbl.replace p.depth ring (d + 1, start)
      | Some _ | None ->
          Hashtbl.replace p.depth ring (1, Runtime_events.Timestamp.to_int64 ts)
  in
  let runtime_end ring ts phase =
    if is_pause phase then
      match Hashtbl.find_opt p.depth ring with
      | Some (1, start) ->
          Hashtbl.replace p.depth ring (0, 0L);
          let d =
            Int64.to_float
              (Int64.sub (Runtime_events.Timestamp.to_int64 ts) start)
          in
          p.total_ns <- p.total_ns +. d;
          if d > p.max_ns then p.max_ns <- d
      | Some (d, start) when d > 1 -> Hashtbl.replace p.depth ring (d - 1, start)
      | Some _ | None -> ()
  in
  Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
    ~lost_events:(fun _ n -> p.lost <- p.lost + n)
    ()

(* Collects pauses while [f] runs. The events file lives in
   $OCAML_RUNTIME_EVENTS_DIR (or the working directory) and is removed by
   the runtime at exit. *)
let with_pauses f =
  Runtime_events.start ();
  Runtime_events.resume ();
  let cursor = Runtime_events.create_cursor None in
  let p =
    { total_ns = 0.0; max_ns = 0.0; lost = 0; depth = Hashtbl.create 4 }
  in
  let cbs = pause_callbacks p in
  let m = Mutex.create () in
  let drain () =
    Mutex.lock m;
    ignore (Runtime_events.read_poll cursor cbs None : int);
    Mutex.unlock m
  in
  (* Discard what happened before [f]. *)
  ignore (Runtime_events.read_poll cursor (Runtime_events.Callbacks.create ()) None : int);
  let stop = Atomic.make false in
  let poller =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Thread.delay 0.01;
          drain ()
        done)
      ()
  in
  let finish () =
    Atomic.set stop true;
    Thread.join poller;
    drain ();
    Runtime_events.pause ();
    Runtime_events.free_cursor cursor
  in
  match f () with
  | v ->
      finish ();
      (v, p)
  | exception e ->
      finish ();
      raise e
