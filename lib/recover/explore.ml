(* Exhaustive crash-point exploration.

   For each class of multi-write operation, record the ordered metadata
   write sequence the live operation performs (Fs.record_journal), then
   materialise every crash state that sequence admits: each prefix (the
   power failed between two writes), and each prefix with one write
   inside the last [window] writes elided (the disk reordered that write
   past the crash point). Every state is repaired with Check.repair and
   must come back to a clean re-audit with every pre-existing file's
   data intact; the full-sequence state must additionally show the
   operation's committed effect. This is the bounded black-box crash
   exploration of CrashMonkey/B3, applied to the simulator's metadata. *)

module Fs = Ffs.Fs
module Inode = Ffs.Inode
module Check = Ffs.Check

let metrics = Obs.Metrics.default

type op_class =
  | Create_small
  | Create_frag
  | Create_large
  | Rewrite
  | Delete
  | Mkdir
  | Rmdir

let all_classes = [ Create_small; Create_frag; Create_large; Rewrite; Delete; Mkdir; Rmdir ]

let class_name = function
  | Create_small -> "create_small"
  | Create_frag -> "create_frag"
  | Create_large -> "create_large"
  | Rewrite -> "rewrite"
  | Delete -> "delete"
  | Mkdir -> "mkdir"
  | Rmdir -> "rmdir"

type class_report = {
  cls : op_class;
  steps : int;
  states : int;
  clean : int;
  preserved : int;
  committed_ok : bool;
  failures : string list;
  skipped : string option;
}

type report = { per_class : class_report list; total_states : int }

let class_ok c =
  match c.skipped with
  | Some _ -> false
  | None -> c.clean = c.states && c.preserved = c.states && c.committed_ok

let all_ok r = List.for_all class_ok r.per_class

(* --- preservation oracle -------------------------------------------------- *)

module Imap = Map.Make (Int)

(* Every pre-existing regular file's content claim (size + exact run
   list). A crashed-and-repaired image must reproduce all of them; the
   operation's own target is judged separately. *)
let fingerprint fs ~targets =
  Fs.fold_files fs ~init:Imap.empty ~f:(fun acc ino ->
      if List.mem ino.Inode.inum targets then acc
      else
        Imap.add ino.Inode.inum
          (ino.Inode.size, Array.copy ino.Inode.entries, Array.copy ino.Inode.indirect_addrs)
          acc)

let preserved fs fp =
  Imap.for_all
    (fun inum (size, entries, indirects) ->
      match Fs.inode fs inum with
      | exception Not_found -> false
      | ino ->
          ino.Inode.kind = Inode.File && ino.Inode.size = size
          && ino.Inode.entries = entries
          && ino.Inode.indirect_addrs = indirects)
    fp

(* --- per-class operation specs -------------------------------------------- *)

exception Skip of string

(* Oldest live file with data — a stable, deterministic victim. *)
let pick_file fs =
  let best = ref None in
  Fs.iter_files fs (fun ino ->
      if ino.Inode.size > 0 then
        match !best with
        | Some b when b.Inode.inum <= ino.Inode.inum -> ()
        | Some _ | None -> best := Some ino);
  match !best with
  | Some i -> i
  | None -> raise (Skip "no regular file with data on the image")

type spec = {
  op : Fs.t -> unit;  (* the journalled operation *)
  state_check : Fs.t -> bool;
      (* must hold in EVERY repaired crash state: the op's target is in
         one of the states a torn-then-repaired disk can legally show *)
  final_check : Fs.t -> bool;
      (* must hold in the full-sequence state: the committed effect *)
  targets : int list;  (* inums excluded from the preservation map *)
}

(* [prep] runs un-journalled on [work] before the base image is taken;
   the returned spec's [op] is the single journalled operation. *)
let build_spec work cls =
  let root = Fs.root work in
  let p = Fs.params work in
  let frag = p.Ffs.Params.frag_bytes in
  let block = p.Ffs.Params.block_bytes in
  let ndaddr = p.Ffs.Params.ndaddr in
  let name = "crashx." ^ class_name cls in
  let create_spec size =
    let created = ref (-1) in
    {
      op = (fun t -> created := Fs.create_file_exn t ~dir:root ~name ~size);
      state_check =
        (fun t ->
          (* the new file either never made it or is whole (the inode
             write is atomic); a whole orphan may live in lost+found *)
          match Fs.inode t !created with
          | exception Not_found -> true
          | ino -> ino.Inode.kind = Inode.File && ino.Inode.size = size);
      final_check =
        (fun t ->
          match Fs.lookup t ~dir:root ~name with
          | Some i -> (Fs.inode t i).Inode.size = size
          | None -> false);
      targets = [];
    }
  in
  match cls with
  | Create_small -> create_spec ((2 * block) + (3 * frag))
  | Create_frag -> create_spec (3 * frag)
  | Create_large -> create_spec ((ndaddr + 2) * block)
  | Rewrite ->
      let victim = pick_file work in
      let inum = victim.Inode.inum in
      let old_size = victim.Inode.size in
      let new_size = (3 * block) + (2 * frag) in
      {
        op = (fun t -> Fs.rewrite_file_exn t ~inum ~size:new_size);
        state_check =
          (fun t ->
            match Fs.inode t inum with
            | exception Not_found -> false  (* a rewrite never loses the file *)
            | ino -> ino.Inode.size = old_size || ino.Inode.size = new_size);
        final_check =
          (fun t ->
            match Fs.inode t inum with
            | exception Not_found -> false
            | ino -> ino.Inode.size = new_size);
        targets = [ inum ];
      }
  | Delete ->
      let victim = pick_file work in
      let inum = victim.Inode.inum in
      let old_size = victim.Inode.size in
      let old_entries = Array.copy victim.Inode.entries in
      {
        op = (fun t -> Fs.delete_inum_exn t inum);
        state_check =
          (fun t ->
            (* either the delete took, or the file survives whole *)
            match Fs.inode t inum with
            | exception Not_found -> true
            | ino -> ino.Inode.size = old_size && ino.Inode.entries = old_entries);
        final_check =
          (fun t -> match Fs.inode t inum with exception Not_found -> true | _ -> false);
        targets = [ inum ];
      }
  | Mkdir ->
      let created = ref (-1) in
      {
        op = (fun t -> created := Fs.mkdir_exn t ~parent:root ~name);
        state_check =
          (fun t ->
            match Fs.inode t !created with
            | exception Not_found -> true
            | ino -> ino.Inode.kind = Inode.Dir);
        final_check =
          (fun t ->
            match Fs.lookup t ~dir:root ~name with
            | Some i -> (Fs.inode t i).Inode.kind = Inode.Dir
            | None -> false);
        targets = [];
      }
  | Rmdir ->
      (* un-journalled prep: the empty directory the operation removes *)
      let doomed = Fs.mkdir_exn work ~parent:root ~name in
      {
        op = (fun t -> Fs.rmdir_exn t ~parent:root ~name);
        state_check =
          (fun t ->
            match Fs.inode t doomed with
            | exception Not_found -> true
            | ino -> ino.Inode.kind = Inode.Dir);
        final_check =
          (fun t -> match Fs.lookup t ~dir:root ~name with None -> true | Some _ -> false);
        targets = [ doomed ];
      }

(* --- state enumeration ---------------------------------------------------- *)

(* Every crash prefix, plus every prefix with one write inside the last
   [window] writes elided (delayed past the crash by reordering). The
   elided index stops at [cut-2]: dropping the last write of a prefix is
   the same state as the shorter prefix. The [cut = n] un-elided entry
   is the fully-durable state used for the committed-effect check. *)
let crash_states steps ~window =
  let arr = Array.of_list steps in
  let n = Array.length arr in
  let states = ref [] in
  for cut = n downto 0 do
    states := (Printf.sprintf "prefix %d/%d" cut n, Array.to_list (Array.sub arr 0 cut), cut = n)
              :: !states
  done;
  let reordered = ref [] in
  for cut = n downto 2 do
    for skip = cut - 2 downto max 0 (cut - window) do
      let sel =
        List.filteri (fun i _ -> i < cut && i <> skip) (Array.to_list arr)
      in
      reordered :=
        (Printf.sprintf "prefix %d/%d minus write %d" cut n skip, sel, false) :: !reordered
    done
  done;
  !states @ !reordered

(* --- the explorer --------------------------------------------------------- *)

let max_recorded_failures = 5

type verdict =
  | Broken of string  (* repair failed, re-audit dirty, or invariants violated *)
  | Damaged of string  (* audit clean, but user data was lost *)
  | Good of Fs.t

let eval_state base fp spec steps =
  let s = Fs.copy base in
  Fs.apply_journal s steps;
  match Check.repair s with
  | Error e -> Broken (Fmt.str "repair failed: %a" Ffs.Error.pp e)
  | Ok _ -> (
      match Check.check_invariants s with
      | exception Ffs.Error.Error e -> Broken (Fmt.str "re-audit dirty: %a" Ffs.Error.pp e)
      | exception _ -> Broken "invariants violated after repair"
      | () ->
          if not (preserved s fp) then Damaged "pre-existing file damaged"
          else if not (spec.state_check s) then Damaged "op target in impossible state"
          else Good s)

let explore_class ?(window = 3) fs cls =
  let labels = [ ("class", class_name cls) ] in
  match
    let work = Fs.copy fs in
    let spec = build_spec work cls in
    let base = Fs.copy work in
    let (), steps = Fs.record_journal work (fun () -> spec.op work) in
    (base, spec, steps)
  with
  | exception Skip reason ->
      {
        cls;
        steps = 0;
        states = 0;
        clean = 0;
        preserved = 0;
        committed_ok = false;
        failures = [];
        skipped = Some reason;
      }
  | base, spec, steps ->
      let fp = fingerprint base ~targets:spec.targets in
      let states = crash_states steps ~window in
      let nstates = ref 0 and nclean = ref 0 and npreserved = ref 0 in
      let committed_ok = ref false in
      let failures = ref [] in
      let record_failure desc msg =
        if List.length !failures < max_recorded_failures then
          failures := Fmt.str "%s: %s" desc msg :: !failures
      in
      List.iter
        (fun (desc, sel, is_full) ->
          incr nstates;
          Obs.Metrics.inc metrics ~labels "crashx_states_total";
          match eval_state base fp spec sel with
          | Broken msg -> record_failure desc msg
          | Damaged msg ->
              (* the audit came back clean even though data was lost *)
              incr nclean;
              Obs.Metrics.inc metrics ~labels "crashx_clean_total";
              record_failure desc msg
          | Good s ->
              incr nclean;
              incr npreserved;
              Obs.Metrics.inc metrics ~labels "crashx_clean_total";
              Obs.Metrics.inc metrics ~labels "crashx_preserved_total";
              if is_full then
                if spec.final_check s then committed_ok := true
                else record_failure desc "committed effect missing")
        states;
      {
        cls;
        steps = List.length steps;
        states = !nstates;
        clean = !nclean;
        preserved = !npreserved;
        committed_ok = !committed_ok;
        failures = List.rev !failures;
        skipped = None;
      }

let run ?(window = 3) ?(classes = all_classes) fs =
  let per_class = List.map (explore_class ~window fs) classes in
  { per_class; total_states = List.fold_left (fun a c -> a + c.states) 0 per_class }

(* --- reporting ------------------------------------------------------------ *)

let pp_class ppf c =
  match c.skipped with
  | Some reason -> Fmt.pf ppf "%-13s skipped (%s)" (class_name c.cls) reason
  | None ->
      Fmt.pf ppf "%-13s %3d writes  %4d states  clean %4d/%d  preserved %4d/%d  committed %s"
        (class_name c.cls) c.steps c.states c.clean c.states c.preserved c.states
        (if c.committed_ok then "ok" else "MISSING");
      if c.failures <> [] then
        Fmt.pf ppf "@,  @[<v>%a@]" (Fmt.list ~sep:Fmt.cut Fmt.string) c.failures

let pp ppf r =
  Fmt.pf ppf "@[<v>%a@,%d crash states explored: %s@]"
    (Fmt.list ~sep:Fmt.cut pp_class) r.per_class r.total_states
    (if all_ok r then "all repaired clean, no data loss" else "FAILURES FOUND")
