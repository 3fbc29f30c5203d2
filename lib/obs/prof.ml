(* Loop-level profiler: per-flowchart-node execution counts and
   cumulative nanoseconds, mapped back to source equations via [Loc].

   Sites are registered once when the interpreter compiles a flowchart
   node and then hit from the execution hot path, so hits are lock-free
   fetch-and-adds on per-site atomics and the disabled guard — which the
   *caller* checks before even reading the clock — is one atomic load.
   Registration takes a mutex, once per node per compile. *)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

type site = {
  s_kind : string;  (* "loop" | "eq" | ... *)
  s_name : string;
  s_loc : Ps_lang.Loc.span option;
  s_count : int Atomic.t;
  s_ns : int Atomic.t;
}

let mutex = Mutex.create ()

(* Registration order; rendering sorts anyway. *)
let sites : site list ref = ref []

let reset () =
  Mutex.lock mutex;
  sites := [];
  Mutex.unlock mutex

let set_enabled b =
  if b && not (Atomic.get enabled_flag) then reset ();
  Atomic.set enabled_flag b

let register ?loc ~kind name =
  let s =
    { s_kind = kind;
      s_name = name;
      s_loc = loc;
      s_count = Atomic.make 0;
      s_ns = Atomic.make 0 }
  in
  Mutex.lock mutex;
  sites := s :: !sites;
  Mutex.unlock mutex;
  s

let hit s ~count ~ns =
  ignore (Atomic.fetch_and_add s.s_count count);
  ignore (Atomic.fetch_and_add s.s_ns ns)

type row = {
  r_kind : string;
  r_name : string;
  r_loc : string option;
  r_count : int;
  r_ns : int;
}

(* Hottest first; sites that never executed are dropped. *)
let rows () =
  Mutex.lock mutex;
  let snap = !sites in
  Mutex.unlock mutex;
  snap
  |> List.filter_map (fun s ->
         let count = Atomic.get s.s_count in
         if count = 0 then None
         else
           Some
             { r_kind = s.s_kind;
               r_name = s.s_name;
               r_loc = Option.map Ps_lang.Loc.to_string s.s_loc;
               r_count = count;
               r_ns = Atomic.get s.s_ns })
  |> List.sort (fun a b -> compare (b.r_ns, b.r_count) (a.r_ns, a.r_count))

let render_table ?(limit = 10) () =
  match rows () with
  | [] -> "profiler: no samples\n"
  | all ->
    let shown = List.filteri (fun i _ -> i < limit) all in
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf "%-6s %-24s %10s %12s  %s\n" "kind" "name" "count"
         "total ms" "source");
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf "%-6s %-24s %10d %12.3f  %s\n" r.r_kind r.r_name
             r.r_count
             (float_of_int r.r_ns /. 1e6)
             (Option.value r.r_loc ~default:"-")))
      shown;
    if List.length all > limit then
      Buffer.add_string b
        (Printf.sprintf "... and %d more\n" (List.length all - limit));
    Buffer.contents b
