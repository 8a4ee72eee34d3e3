(* What the benchmark observes: clocks, sample statistics, peak memory,
   and the spans and counters of a traced run.

   Spans are recorded by the benchmark's own code around its calls into
   each layer's public functions; nothing inside the library is
   instrumented.  Recording is off unless {!set_tracing} turned it on, so
   an untraced run pays one atomic read per call site. *)

let now () = Unix.gettimeofday ()

(* Costs are CPU time, not wall time: the machine this was written on
   is a 2-vCPU VM whose host steals up to a third of the time in bursts
   that last a minute, and while it did, a seqd pass's wall time moved
   by 16% between passes and its CPU time by 5%.  [cpu] is the whole
   process's (every domain), [thread_cpu] the calling domain's. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

external thread_cpu : unit -> float = "perfbench_thread_cpu_s"

(* Where spans and the service's scratch stores go, under the current
   directory. *)
let out_dir = ".perfbench_out"

(* One pass of a workload over its item set: each item's CPU ms, and
   the CPU seconds items_per_s is taken over; [errors] name every wrong
   answer, UNKNOWN, exception or failed request ([failed] counts
   them). *)
type pass = {
  items : int;
  failed : int;
  lat_ms : float list;
  cpu_s : float;
  errors : string list;
}

(* ---- sample statistics ---- *)

let sorted (xs : float list) =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an ascending array. *)
let percentile (a : float array) p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

(* The midpoint median, for the small repeated set-up samples. *)
let median (xs : float list) =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Peak resident set size of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* ---- spans ---- *)

type span = {
  sid : int;
  name : string;
  item : int;  (** shared by every span of one workload item *)
  parent : int;  (** 0 for an item's root span *)
  t0 : float;
  t1 : float;
}

let tracing = Atomic.make false
let set_tracing b = Atomic.set tracing b
let traced () = Atomic.get tracing
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_sid = Atomic.make 1

(* per-domain parent stack and current item id *)
let stack_key = Domain.DLS.new_key (fun () -> ref [])
let item_key = Domain.DLS.new_key (fun () -> ref 0)

(* [span name f]: run [f], recording a span nested under the innermost
   open span of this domain. *)
let span name f =
  if not (Atomic.get tracing) then f ()
  else begin
    let st = Domain.DLS.get stack_key in
    let parent = match !st with p :: _ -> p | [] -> 0 in
    (* the id is reserved up front so children can name their parent *)
    let sid = Atomic.fetch_and_add next_sid 1 in
    st := sid :: !st;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        st := List.tl !st;
        let item = !(Domain.DLS.get item_key) in
        Mutex.protect lock (fun () ->
            spans := { sid; name; item; parent; t0; t1 } :: !spans))
      f
  end

(* [item id name f]: the root span of one workload item (never nested,
   even when a pool runs items on the domain that opened a sweep span);
   every span opened inside [f] on this domain carries [id]. *)
let item id name f =
  if not (Atomic.get tracing) then f ()
  else begin
    let cur = Domain.DLS.get item_key in
    let st = Domain.DLS.get stack_key in
    let saved_item = !cur and saved_stack = !st in
    cur := id;
    st := [];
    Fun.protect
      ~finally:(fun () ->
        cur := saved_item;
        st := saved_stack)
      (fun () -> span name f)
  end

(* ---- counters, recorded at the same boundaries as the spans ---- *)

let counts : (string, float) Hashtbl.t = Hashtbl.create 64

let count name n =
  if Atomic.get tracing then
    Mutex.protect lock (fun () ->
        let v = Option.value (Hashtbl.find_opt counts name) ~default:0. in
        Hashtbl.replace counts name (v +. n))

let counter name = Option.value (Hashtbl.find_opt counts name) ~default:0.

let reset () =
  Mutex.protect lock (fun () ->
      spans := [];
      Hashtbl.reset counts)

(* Self time per span name, in ms: a span's duration minus the time its
   child spans cover (children of one parent never overlap: they run on
   the parent's domain, one after another). *)
let self_ms () =
  let all = Mutex.protect lock (fun () -> !spans) in
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let v = Option.value (Hashtbl.find_opt child s.parent) ~default:0. in
        Hashtbl.replace child s.parent (v +. (s.t1 -. s.t0)))
    all;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let inner = Option.value (Hashtbl.find_opt child s.sid) ~default:0. in
      let v = Option.value (Hashtbl.find_opt self s.name) ~default:0. in
      let own = Float.max 0. (s.t1 -. s.t0 -. inner) in
      Hashtbl.replace self s.name (v +. (1000. *. own)))
    all;
  fun name -> Option.value (Hashtbl.find_opt self name) ~default:0.

(* Total (not self) ms of the spans called [name]. *)
let total_ms name =
  let all = Mutex.protect lock (fun () -> !spans) in
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (1000. *. (s.t1 -. s.t0)) else acc)
    0. all

(* Write every span, oldest first, one JSON object per line; times are
   Unix seconds with microsecond digits. *)
let write_spans path =
  let all = List.rev (Mutex.protect lock (fun () -> !spans)) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%s,\"item\":%d,\"parent\":%d,\"start_s\":%.6f,\"end_s\":%.6f}\n"
            s.sid
            (Service.Json.to_string (String s.name))
            s.item s.parent s.t0 s.t1)
        all);
  List.length all
