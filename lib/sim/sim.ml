(* The event queue is the hottest structure in the simulator: every
   message hop, CPU charge and timer is a push/pop pair. It is a
   monomorphic binary min-heap in structure-of-arrays layout: per heap
   position, the timestamp (a flat unboxed [float array]), the insertion
   sequence number (the FIFO tie-break that keeps replay deterministic)
   and a slot number. Callbacks never move: each lives in [fns] at its
   slot, written once on [push] and reset to a shared no-op on
   [take]/[remove] so fired closures are collectable immediately. Sifting
   therefore moves only unboxed (at, seq, slot) triples, into a hole
   rather than by swaps, and never goes through the write barrier.

   Free slots need no array of their own. Every live entry holds exactly
   one slot, so the [hwm - len] slots handed out and since freed fit in
   [slot]'s positions [len, hwm), past the heap: a [take] leaves its slot
   in the position the heap just gave up, and a [push] into position
   [len] reuses the slot it finds there. Slots at [hwm] and above have
   never been used. *)
module Eq = struct
  type t = {
    mutable at : float array; (* heap position -> timestamp, unboxed *)
    mutable seq : int array; (* heap position -> insertion sequence *)
    mutable slot : int array;
        (* heap position -> slot of its callback; [len, hwm): free slots *)
    mutable fns : (unit -> unit) array; (* slot -> callback *)
    mutable len : int;
    mutable hwm : int; (* slots ever handed out *)
    mutable next_seq : int;
  }

  let nop () = ()

  let initial = 256

  (* The arrays are allocated on the first push: a queue that is created
     and never used (setup paths, short probes) costs only its record. *)
  let create () =
    { at = [||]; seq = [||]; slot = [||]; fns = [||]; len = 0; hwm = 0; next_seq = 0 }

  let length q = q.len

  let grow q =
    let cap = Array.length q.at in
    let ncap = max initial (2 * cap) in
    let at = Array.make ncap 0.0 in
    Array.blit q.at 0 at 0 cap;
    q.at <- at;
    let seq = Array.make ncap 0 in
    Array.blit q.seq 0 seq 0 cap;
    q.seq <- seq;
    let slot = Array.make ncap 0 in
    Array.blit q.slot 0 slot 0 cap;
    q.slot <- slot;
    let fns = Array.make ncap nop in
    Array.blit q.fns 0 fns 0 cap;
    q.fns <- fns

  (* Moves the entry at position [src] into the hole at [hole] and
     sifts it up: ancestors that order after it (strict (at, seq)
     lexicographic order; keys are never NaN, the scheduler clamps them
     against the monotone clock) move down one level each. *)
  let sift_up q hole src =
    let ats = q.at and seqs = q.seq and slots = q.slot in
    let at = ats.(src) and seq = seqs.(src) and slot = slots.(src) in
    let i = ref hole in
    let moving = ref true in
    while !moving && !i > 0 do
      let p = (!i - 1) / 2 in
      let pa = ats.(p) in
      if at < pa || (at = pa && seq < seqs.(p)) then begin
        ats.(!i) <- pa;
        seqs.(!i) <- seqs.(p);
        slots.(!i) <- slots.(p);
        i := p
      end
      else moving := false
    done;
    ats.(!i) <- at;
    seqs.(!i) <- seq;
    slots.(!i) <- slot

  (* Moves the entry at position [src] into the hole at [hole] and sifts
     it down: the smaller child moves up while it orders first. *)
  let sift_down q hole src =
    let ats = q.at and seqs = q.seq and slots = q.slot in
    let at = ats.(src) and seq = seqs.(src) and slot = slots.(src) in
    let len = q.len in
    let i = ref hole in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= len then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < len then begin
            let ra = ats.(r) and la = ats.(l) in
            if ra < la || (ra = la && seqs.(r) < seqs.(l)) then r else l
          end
          else l
        in
        let ca = ats.(c) in
        if ca < at || (ca = at && seqs.(c) < seq) then begin
          ats.(!i) <- ca;
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else moving := false
      end
    done;
    ats.(!i) <- at;
    seqs.(!i) <- seq;
    slots.(!i) <- slot

  let push q ~at fn =
    let i = q.len in
    if i = Array.length q.at then grow q;
    let s =
      if i < q.hwm then q.slot.(i)
      else begin
        let s = q.hwm in
        q.hwm <- s + 1;
        s
      end
    in
    q.fns.(s) <- fn;
    q.at.(i) <- at;
    q.seq.(i) <- q.next_seq;
    q.slot.(i) <- s;
    q.next_seq <- q.next_seq + 1;
    q.len <- i + 1;
    sift_up q i i

  (* Only meaningful when [length q > 0]. *)
  let min_at q = q.at.(0)

  (* Empties slot [s] and returns its callback. *)
  let release q s =
    let fn = q.fns.(s) in
    q.fns.(s) <- nop;
    fn

  (* Removes the root and returns its callback; callers must have checked
     [length q > 0]. The last entry fills the root's hole, and the freed
     slot goes to the position the heap gives up. *)
  let take q =
    let s = q.slot.(0) in
    let last = q.len - 1 in
    q.len <- last;
    if last > 0 then sift_down q 0 last;
    q.slot.(last) <- s;
    release q s

  (* Removes the entry at heap position [i] (controlled scheduling picks
     events other than the root) and returns its callback. The last entry
     fills the hole, moving up or down as its key requires. *)
  let remove q i =
    let s = q.slot.(i) in
    let last = q.len - 1 in
    q.len <- last;
    if i < last then begin
      let p = (i - 1) / 2 in
      let la = q.at.(last) and pa = q.at.(p) in
      if i > 0 && (la < pa || (la = pa && q.seq.(last) < q.seq.(p))) then
        sift_up q i last
      else sift_down q i last
    end;
    q.slot.(last) <- s;
    release q s
end

(* --- controlled scheduling --- *)

type candidate = { c_at : float; c_src : int; c_dst : int; c_note : string }

type controller = {
  window : float;
  choose : now:float -> candidate array -> int;
}

type delivery = { d_src : int; d_dst : int; d_note : string }

(* Tags live in a side table keyed by heap sequence number rather than a
   fourth heap array: the uncontrolled hot path never touches them, so
   the disabled simulator is byte-for-byte the pre-hook one. *)
type ctl = {
  cfg : controller;
  tags : (int, delivery) Hashtbl.t;
  mutable decisions : int;
}

type t = {
  mutable clock : float;
  events : Eq.t;
  mutable fired : int;
  mutable pushed : int;
  mutable peak : int; (* high-water mark of the event heap *)
  mutable ctl : ctl option;
}

let create () =
  {
    clock = 0.0;
    events = Eq.create ();
    fired = 0;
    pushed = 0;
    peak = 0;
    ctl = None;
  }

let now t = t.clock

let schedule_at t ~at fn =
  let at = Float.max at t.clock in
  Eq.push t.events ~at fn;
  t.pushed <- t.pushed + 1;
  let len = Eq.length t.events in
  if len > t.peak then t.peak <- len

let schedule t ~delay fn = schedule_at t ~at:(t.clock +. Float.max 0.0 delay) fn

let set_controller t cfg =
  t.ctl <-
    (match cfg with
    | None -> None
    | Some cfg -> Some { cfg; tags = Hashtbl.create 64; decisions = 0 })

let decisions t = match t.ctl with None -> 0 | Some c -> c.decisions

let schedule_delivery t ~delay ~src ~dst ~note fn =
  match t.ctl with
  | None -> schedule t ~delay fn
  | Some c ->
      let seq = t.events.Eq.next_seq in
      schedule t ~delay fn;
      Hashtbl.replace c.tags seq { d_src = src; d_dst = dst; d_note = note }

let pending_deliveries t =
  match t.ctl with
  | None -> []
  | Some c ->
      let q = t.events in
      let acc = ref [] in
      for i = 0 to Eq.length q - 1 do
        match Hashtbl.find_opt c.tags q.Eq.seq.(i) with
        | Some d -> acc := (q.Eq.at.(i), q.Eq.seq.(i), d) :: !acc
        | None -> ()
      done;
      List.map
        (fun (at, _, d) -> (at, d.d_src, d.d_dst, d.d_note))
        (List.sort
           (fun (a1, s1, _) (a2, s2, _) ->
             match Float.compare a1 a2 with
             | 0 -> Int.compare s1 s2
             | c -> c)
           !acc)

let fire t ~at fn =
  t.clock <- Float.max t.clock at;
  t.fired <- t.fired + 1;
  fn ()

(* One step of the controlled loop. A decision point forms when the
   minimum event is a tagged delivery and at least one other tagged
   delivery falls inside [t_min, t_min + window]: the candidate set
   (sorted by (timestamp, sequence), so its order is the uncontrolled
   firing order) goes to the strategy, and the chosen delivery fires at
   the window base [t_min] — picking a later candidate models that
   message arriving early, so permutations of same-instant candidates
   reconverge to identical states. Untagged events (timers, machine
   completions, workload ticks) always fire in plain heap order. *)
let controlled_step t ctl horizon =
  let q = t.events in
  if Eq.length q = 0 || Eq.min_at q > horizon then false
  else begin
    let t0 = Eq.min_at q in
    if not (Hashtbl.mem ctl.tags q.Eq.seq.(0)) then begin
      let fn = Eq.take q in
      fire t ~at:t0 fn;
      true
    end
    else begin
      let limit = t0 +. Float.max 0.0 ctl.cfg.window in
      let cands = ref [] in
      for i = 0 to Eq.length q - 1 do
        if q.Eq.at.(i) <= limit then
          match Hashtbl.find_opt ctl.tags q.Eq.seq.(i) with
          | Some d -> cands := (q.Eq.at.(i), q.Eq.seq.(i), i, d) :: !cands
          | None -> ()
      done;
      let cands =
        List.sort
          (fun (a1, s1, _, _) (a2, s2, _, _) ->
            match Float.compare a1 a2 with
            | 0 -> Int.compare s1 s2
            | c -> c)
          !cands
      in
      match cands with
      | [] -> assert false (* the root itself is tagged *)
      | [ (_, s, _, _) ] ->
          (* Only one deliverable message in the window: no choice to
             make. It is necessarily the root. *)
          Hashtbl.remove ctl.tags s;
          let fn = Eq.take q in
          fire t ~at:t0 fn;
          true
      | _ :: _ :: _ ->
          let arr =
            Array.of_list
              (List.map
                 (fun (at, _, _, d) ->
                   {
                     c_at = at;
                     c_src = d.d_src;
                     c_dst = d.d_dst;
                     c_note = d.d_note;
                   })
                 cands)
          in
          ctl.decisions <- ctl.decisions + 1;
          let k = ctl.cfg.choose ~now:t.clock arr in
          if k < 0 || k >= Array.length arr then
            invalid_arg "Sim: controller chose an out-of-range candidate";
          let _, s, i, _ = List.nth cands k in
          Hashtbl.remove ctl.tags s;
          let fn = Eq.remove q i in
          fire t ~at:t0 fn;
          true
    end
  end

let run_until t horizon =
  (match t.ctl with
  | None ->
      let continue = ref true in
      while !continue do
        if Eq.length t.events > 0 && Eq.min_at t.events <= horizon then begin
          let at = Eq.min_at t.events in
          let fn = Eq.take t.events in
          t.clock <- Float.max t.clock at;
          t.fired <- t.fired + 1;
          fn ()
        end
        else continue := false
      done
  | Some ctl -> while controlled_step t ctl horizon do () done);
  t.clock <- Float.max t.clock horizon

let peek_at t = if Eq.length t.events = 0 then None else Some (Eq.min_at t.events)

let drain_window t ~width =
  if width < 0.0 then invalid_arg "Sim.drain_window: width must be >= 0";
  match peek_at t with
  | None -> 0
  | Some t0 ->
      let limit = t0 +. width in
      let fired = ref 0 in
      let continue = ref true in
      while !continue do
        if Eq.length t.events > 0 && Eq.min_at t.events <= limit then begin
          let at = Eq.min_at t.events in
          (match t.ctl with
          | Some c -> Hashtbl.remove c.tags t.events.Eq.seq.(0)
          | None -> ());
          let fn = Eq.take t.events in
          fire t ~at fn;
          incr fired
        end
        else continue := false
      done;
      !fired

let run_to_completion ?(max_events = 100_000_000) t =
  let count = ref 0 in
  while Eq.length t.events > 0 do
    incr count;
    if !count > max_events then
      failwith "Sim.run_to_completion: event budget exhausted";
    let at = Eq.min_at t.events in
    (match t.ctl with
    | Some c -> Hashtbl.remove c.tags t.events.Eq.seq.(0)
    | None -> ());
    let fn = Eq.take t.events in
    t.clock <- Float.max t.clock at;
    t.fired <- t.fired + 1;
    fn ()
  done

let pending t = Eq.length t.events
let fired t = t.fired
let pushed t = t.pushed
let peak_depth t = t.peak
