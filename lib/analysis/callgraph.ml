type pos = Report.pos
type mask = Catch_all | Catch_only of string list

type fact =
  | Write of string
  | Block of string * string
  | Raise of string

type edge = { callee : string; e_pos : pos; e_mask : mask }

type node = {
  id : string;
  display : string;
  n_pos : pos;
  mutable attrs : string list;
  mutable edges : edge list;
  mutable facts : (fact * pos) list;
  mutable arg_of : string option;
}

type root = { r_node : string; r_why : string; r_pos : pos }

type t = {
  nodes : (string, node) Hashtbl.t;
  mutable globals : string list;
  mutable parallel_roots : root list;
  mutable nonblocking_roots : root list;
  mutable escape_roots : root list;
}

let node g id = Hashtbl.find_opt g.nodes id

(* ------------------------------------------------------------------ *)
(* Masks *)

let merge_mask a b =
  match (a, b) with
  | Catch_all, _ | _, Catch_all -> Catch_all
  | Catch_only x, Catch_only y -> Catch_only (x @ y)

let mask_catches m exn =
  match m with Catch_all -> true | Catch_only l -> List.mem exn l

let merge_frames frames =
  List.fold_left merge_mask (Catch_only []) frames

(* ------------------------------------------------------------------ *)
(* Pattern analysis: what does a handler pattern certainly catch? *)

let rec irrefutable : type k. k Typedtree.general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_any | Tpat_var _ -> true
  | Tpat_alias (q, _, _) -> irrefutable q
  | Tpat_tuple ps -> List.for_all irrefutable ps
  | _ -> false

(* Conservative in the catching direction: a constructor pattern counts
   only when every argument subpattern is irrefutable, so
   [Unix_error ((EINTR | ECONNABORTED), _, _)] catches nothing as far as
   the escape rule is concerned. *)
let rec pat_catches : type k. k Typedtree.general_pattern -> mask =
 fun p ->
  match p.pat_desc with
  | Tpat_any | Tpat_var _ -> Catch_all
  | Tpat_alias (q, _, _) -> pat_catches q
  | Tpat_or (a, b, _) -> merge_mask (pat_catches a) (pat_catches b)
  | Tpat_construct (_, cstr, subs, _) when List.for_all irrefutable subs ->
      Catch_only [ cstr.cstr_name ]
  | _ -> Catch_only []

let mask_of_value_case (c : Typedtree.value Typedtree.case) =
  if c.c_guard <> None then Catch_only [] else pat_catches c.c_lhs

let mask_of_comp_case (c : Typedtree.computation Typedtree.case) =
  if c.c_guard <> None then Catch_only []
  else
    match Typedtree.split_pattern c.c_lhs with
    | _, Some exn_pat -> pat_catches exn_pat
    | _, None -> Catch_only []

let mask_of_cases mask_of cases =
  List.fold_left (fun m c -> merge_mask m (mask_of c)) (Catch_only []) cases

(* ------------------------------------------------------------------ *)
(* Walk state *)

type wstate = {
  g : t;
  aliases : (string, string) Hashtbl.t;
      (* module ident unique_name -> canonical prefix *)
  locals : (string, string) Hashtbl.t;
      (* value ident unique_name -> node or global id *)
  mutable stack : node list; (* head = current context *)
  mutable frames : mask list;
  mutable prefix : string; (* canonical module path *)
  mutable anon : int;
}

let pos_of (loc : Location.t) : pos =
  let p = loc.Location.loc_start in
  {
    file = p.Lexing.pos_fname;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
  }

let current st = List.hd st.stack
let is_init id = Filename.check_suffix id ".<init>"

let fresh_node st ~id ~pos ~attrs ~arg_of =
  let rec free id k =
    let id' = if k = 0 then id else Printf.sprintf "%s~%d" id k in
    if Hashtbl.mem st.g.nodes id' then free id (k + 1) else id'
  in
  let id = free id 0 in
  let n =
    { id; display = id; n_pos = pos; attrs; edges = []; facts = []; arg_of }
  in
  Hashtbl.replace st.g.nodes id n;
  n

let child_id st name =
  let h = current st in
  (if is_init h.id then st.prefix else h.id) ^ "." ^ name

let add_edge st callee e_pos =
  let n = current st in
  let e_mask = merge_frames st.frames in
  if
    not
      (List.exists
         (fun e -> String.equal e.callee callee && e.e_mask = e_mask)
         n.edges)
  then n.edges <- { callee; e_pos; e_mask } :: n.edges

let add_fact st fact pos =
  let n = current st in
  n.facts <- (fact, pos) :: n.facts

let record_raise st exn pos =
  if not (mask_catches (merge_frames st.frames) exn) then
    add_fact st (Raise exn) pos

(* A node body runs later and elsewhere: handlers lexically surrounding
   the definition do not surround the execution. *)
let with_node st n f =
  let frames = st.frames in
  st.frames <- [];
  st.stack <- n :: st.stack;
  Fun.protect
    ~finally:(fun () ->
      st.stack <- List.tl st.stack;
      st.frames <- frames)
    f

(* ------------------------------------------------------------------ *)
(* Path canonicalisation *)

type resolved = R_id of string | R_unknown

let rec canon st (p : Path.t) =
  match p with
  | Path.Pident id -> (
      let u = Ident.unique_name id in
      match Hashtbl.find_opt st.locals u with
      | Some target -> R_id target
      | None -> (
          match Hashtbl.find_opt st.aliases u with
          | Some prefix -> R_id prefix
          | None ->
              if Ident.persistent id then
                R_id (Contexts.canonical_unit (Ident.name id))
              else R_unknown))
  | Path.Pdot (p', s) -> (
      match canon st p' with
      | R_id c -> R_id (c ^ "." ^ s)
      | R_unknown -> R_unknown)
  | _ -> R_unknown

let canon_name st p = match canon st p with R_id c -> Some c | R_unknown -> None

let rec head_path (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some p
  | Texp_apply (f, _) -> head_path f
  | _ -> None

let exn_constr_name (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_construct (_, cstr, _) -> Some cstr.Types.cstr_name
  | _ -> None

let pslint_attrs (attrs : Typedtree.attributes) =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      let n = a.attr_name.txt in
      if
        List.mem n
          [ Contexts.attr_blocking_ok; Contexts.attr_shared_ok;
            Contexts.attr_nonblocking; Contexts.attr_no_escape ]
      then Some n
      else None)
    attrs

let register_attr_roots st (n : node) =
  if List.mem Contexts.attr_nonblocking n.attrs then
    st.g.nonblocking_roots <-
      { r_node = n.id; r_why = "[@pslint.nonblocking]"; r_pos = n.n_pos }
      :: st.g.nonblocking_roots;
  if List.mem Contexts.attr_no_escape n.attrs then
    st.g.escape_roots <-
      { r_node = n.id; r_why = "[@pslint.no_escape]"; r_pos = n.n_pos }
      :: st.g.escape_roots

let add_root st kind target ~why ~pos =
  let r = { r_node = target; r_why = why; r_pos = pos } in
  match kind with
  | `Parallel -> st.g.parallel_roots <- r :: st.g.parallel_roots
  | `Nonblocking -> st.g.nonblocking_roots <- r :: st.g.nonblocking_roots
  | `Escape -> st.g.escape_roots <- r :: st.g.escape_roots

(* The RHS shapes that make a top-level binding shared mutable state. *)
let maker_head st (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_array _ -> true
  | Texp_apply (f, _) -> (
      match head_path f with
      | Some p -> (
          match canon_name st p with
          | Some c -> Contexts.find_suffix c Contexts.mutable_makers <> None
          | None -> false)
      | None -> false)
  | _ -> false

let binder_of (p : Typedtree.pattern) =
  match p.pat_desc with
  | Tpat_var (id, name) -> Some (id, name.txt)
  | Tpat_alias (_, id, name) -> Some (id, name.txt)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The walk *)

let rec iter_expr st (it : Tast_iterator.iterator) (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> ident_ref st p (pos_of e.exp_loc)
  | Texp_let (_, vbs, body) ->
      handle_bindings st it ~toplevel:false vbs;
      it.expr it body
  | Texp_function { cases; _ } ->
      (* A bare lambda in expression position: its body runs later, so
         lexical handlers do not apply; effects accrue to the defining
         node (conservative). *)
      let frames = st.frames in
      st.frames <- [];
      List.iter (walk_case st it) cases;
      st.frames <- frames
  | Texp_apply (head, args) -> handle_apply st it head args (pos_of e.exp_loc)
  | Texp_try (body, cases) ->
      st.frames <- mask_of_cases mask_of_value_case cases :: st.frames;
      it.expr it body;
      st.frames <- List.tl st.frames;
      List.iter (walk_case st it) cases
  | Texp_match (scrut, cases, _) ->
      st.frames <- mask_of_cases mask_of_comp_case cases :: st.frames;
      it.expr it scrut;
      st.frames <- List.tl st.frames;
      List.iter (walk_case st it) cases
  | Texp_setfield (target, _, _, v) ->
      (match head_path target with
      | Some p -> record_write st p (pos_of e.exp_loc)
      | None -> ());
      it.expr it target;
      it.expr it v
  | _ -> Tast_iterator.default_iterator.expr it e

and walk_case : type k.
    wstate -> Tast_iterator.iterator -> k Typedtree.case -> unit =
 fun st it c ->
  let _ = st in
  Option.iter (it.expr it) c.c_guard;
  it.expr it c.c_rhs

and ident_ref st p pos =
  match canon st p with
  | R_id target -> add_edge st target pos
  | R_unknown -> ()

and record_write st p pos =
  match canon st p with
  | R_id target -> add_fact st (Write target) pos
  | R_unknown -> ()

and handle_apply st it head args apos =
  let head_name =
    match head.exp_desc with
    | Texp_ident (p, _, _) -> canon_name st p
    | _ -> None
  in
  (match head.exp_desc with
  | Texp_ident (p, _, _) -> ident_ref st p (pos_of head.exp_loc)
  | _ -> it.expr it head);
  let hname = Option.value head_name ~default:"" in
  let spawner = Contexts.find_suffix hname Contexts.spawners in
  let signal = Contexts.find_suffix hname Contexts.signal_installers in
  (* Effect facts for primitive heads. *)
  (if
     Contexts.suffix_matches ~pattern:"raise" hname
     || Contexts.suffix_matches ~pattern:"raise_notrace" hname
   then
     match args with
     | (_, Some a) :: _ -> (
         match exn_constr_name a with
         | Some exn -> record_raise st exn apos
         | None -> ())
     | _ -> ());
  (match Contexts.blocking_prim hname with
  | Some why -> add_fact st (Block (hname, why)) apos
  | None -> ());
  List.iter (fun exn -> record_raise st exn apos) (Contexts.raising_prim hname);
  (if Contexts.find_suffix hname Contexts.write_prims <> None then
     match
       List.find_opt (fun (lbl, a) -> lbl = Asttypes.Nolabel && a <> None) args
     with
     | Some (_, Some a) -> (
         match head_path a with
         | Some p -> record_write st p (pos_of a.exp_loc)
         | None -> ())
     | _ -> ());
  (* Root discovery: spawned functional arguments. *)
  let root_kinds =
    match (spawner, signal) with
    | Some s, _ ->
        let escape = List.mem s Contexts.thread_spawners in
        Some
          ( (`Parallel :: (if escape then [ `Escape ] else [])),
            "spawned via " ^ s )
    | None, Some s ->
        Some ([ `Parallel; `Nonblocking; `Escape ], "signal handler via " ^ s)
    | None, None -> None
  in
  let root_arg a =
    (* For [Sys.set_signal sig (Signal_handle f)] the handler sits under
       a constructor; unwrap it first. *)
    let a =
      match a.Typedtree.exp_desc with
      | Texp_construct (_, cstr, [ payload ])
        when String.equal cstr.Types.cstr_name "Signal_handle" ->
          payload
      | _ -> a
    in
    match a.Typedtree.exp_desc with
    | Texp_function _ -> `Lambda a
    | _ -> (
        match head_path a with
        | Some p -> (
            match canon st p with R_id c -> `Named c | R_unknown -> `None)
        | None -> `None)
  in
  List.iter
    (fun (_, aopt) ->
      match aopt with
      | None -> ()
      | Some a -> (
          let rooted = match root_kinds with Some _ -> root_arg a | None -> `None in
          match a.Typedtree.exp_desc with
          | Texp_function { cases; _ } ->
              let id =
                st.anon <- st.anon + 1;
                Printf.sprintf "%s.<fun:%d>" (current st).id
                  (pos_of a.exp_loc).line
              in
              let attrs = pslint_attrs a.exp_attributes in
              let lam =
                fresh_node st ~id ~pos:(pos_of a.exp_loc) ~attrs
                  ~arg_of:head_name
              in
              add_edge st lam.id (pos_of a.exp_loc);
              (match (root_kinds, rooted) with
              | Some (kinds, why), `Lambda _ ->
                  List.iter
                    (fun k ->
                      add_root st k lam.id ~why ~pos:(pos_of a.exp_loc))
                    kinds
              | _ -> ());
              with_node st lam (fun () -> List.iter (walk_case st it) cases)
          | _ ->
              (match (root_kinds, rooted) with
              | Some (kinds, why), `Named c ->
                  List.iter
                    (fun k -> add_root st k c ~why ~pos:(pos_of a.exp_loc))
                    kinds
              | _ -> ());
              it.expr it a))
    args

and handle_bindings st it ~toplevel vbs =
  (* Register every binder first so recursive and mutually-recursive
     references resolve, then walk the right-hand sides. *)
  let classified =
    List.map
      (fun (vb : Typedtree.value_binding) ->
        let binder = binder_of vb.vb_pat in
        let kind =
          match vb.vb_expr.exp_desc with
          | Texp_function _ -> `Fun
          | Texp_ident (p, _, _) -> `Alias p
          | _ -> `Plain
        in
        (vb, binder, kind))
      vbs
  in
  List.iter
    (fun ((vb : Typedtree.value_binding), binder, kind) ->
      match (binder, kind) with
      | Some (id, name), `Fun ->
          let nid = child_id st name in
          let attrs =
            pslint_attrs (vb.vb_attributes @ vb.vb_expr.exp_attributes)
          in
          let n =
            fresh_node st ~id:nid ~pos:(pos_of vb.vb_loc) ~attrs ~arg_of:None
          in
          Hashtbl.replace st.locals (Ident.unique_name id) n.id;
          register_attr_roots st n
      | Some (id, name), `Plain when toplevel && maker_head st vb.vb_expr ->
          let gid = st.prefix ^ "." ^ name in
          st.g.globals <- gid :: st.g.globals;
          Hashtbl.replace st.locals (Ident.unique_name id) gid
      | _ -> ())
    classified;
  List.iter
    (fun ((vb : Typedtree.value_binding), binder, kind) ->
      match (binder, kind) with
      | Some (id, _), `Fun -> (
          let nid = Hashtbl.find st.locals (Ident.unique_name id) in
          match (node st.g nid, vb.vb_expr.exp_desc) with
          | Some n, Texp_function { cases; _ } ->
              with_node st n (fun () -> List.iter (walk_case st it) cases)
          | _ -> it.expr it vb.vb_expr)
      | Some (id, _), `Alias p ->
          (match canon st p with
          | R_id target -> Hashtbl.replace st.locals (Ident.unique_name id) target
          | R_unknown -> ());
          ident_ref st p (pos_of vb.vb_expr.exp_loc)
      | _ -> it.expr it vb.vb_expr)
    classified

and iter_item st (it : Tast_iterator.iterator)
    (item : Typedtree.structure_item) =
  match item.str_desc with
  | Tstr_value (_, vbs) ->
      handle_bindings st it ~toplevel:(is_init (current st).id) vbs
  | Tstr_eval (e, _) -> it.expr it e
  | Tstr_module mb -> handle_module st it mb
  | Tstr_recmodule mbs -> List.iter (handle_module st it) mbs
  | _ -> Tast_iterator.default_iterator.structure_item it item

and handle_module st it (mb : Typedtree.module_binding) =
  let name =
    match mb.mb_name.txt with Some n -> n | None -> "_"
  in
  let rec go (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> (
        match canon st p with
        | R_id c -> (
            match mb.mb_id with
            | Some id -> Hashtbl.replace st.aliases (Ident.unique_name id) c
            | None -> ())
        | R_unknown -> ())
    | Tmod_structure str ->
        let saved = st.prefix in
        st.prefix <- st.prefix ^ "." ^ name;
        (match mb.mb_id with
        | Some id -> Hashtbl.replace st.aliases (Ident.unique_name id) st.prefix
        | None -> ());
        List.iter (iter_item st it) str.str_items;
        st.prefix <- saved
    | Tmod_constraint (me', _, _, _) -> go me'
    | _ -> Tast_iterator.default_iterator.module_expr it me
  in
  go mb.mb_expr

let make_iterator st =
  {
    Tast_iterator.default_iterator with
    expr = (fun it e -> iter_expr st it e);
    structure_item = (fun it si -> iter_item st it si);
  }

let walk_implementation g ~modcanon (str : Typedtree.structure) =
  let st =
    {
      g;
      aliases = Hashtbl.create 16;
      locals = Hashtbl.create 64;
      stack = [];
      frames = [];
      prefix = modcanon;
      anon = 0;
    }
  in
  let init =
    fresh_node st
      ~id:(modcanon ^ ".<init>")
      ~pos:{ file = ""; line = 1; col = 0 }
      ~attrs:[] ~arg_of:None
  in
  st.stack <- [ init ];
  let it = make_iterator st in
  List.iter (iter_item st it) str.str_items

(* ------------------------------------------------------------------ *)
(* Loading *)

(* The build tree changes under a running scan: a relink beside the
   rule can remove an entry between [Sys.readdir] and the stat, and a
   symlink can dangle.  Such an entry holds no .cmt to read, so it is
   skipped, not fatal. *)
let rec cmt_files path acc =
  match Sys.is_directory path with
  | true -> (
      (* dune keeps .cmt files inside dot-directories (.lib.objs): do NOT
         skip hidden entries here, unlike the source walker. *)
      match Sys.readdir path with
      | entries ->
          Array.fold_left
            (fun acc entry -> cmt_files (Filename.concat path entry) acc)
            acc entries
      | exception Sys_error _ -> acc)
  | false -> if Filename.check_suffix path ".cmt" then path :: acc else acc
  | exception Sys_error _ -> acc

let build ~cmt_dirs =
  let g =
    {
      nodes = Hashtbl.create 512;
      globals = [];
      parallel_roots = [];
      nonblocking_roots = [];
      escape_roots = [];
    }
  in
  let files =
    List.sort String.compare
      (List.concat_map
         (fun d -> if Sys.file_exists d then cmt_files d [] else [])
         cmt_dirs)
  in
  List.iter
    (fun f ->
      match Cmt_format.read_cmt f with
      | { cmt_annots = Implementation str; cmt_modname; _ } ->
          walk_implementation g
            ~modcanon:(Contexts.canonical_unit cmt_modname)
            str
      | _ -> ()
      | exception _ -> ())
    files;
  g
