(* Seeded input generation for the serve benchmark.

   Everything the served program receives is produced here from the seed
   alone: the state file handed to --state-file, the NDJSON request lines,
   and (for serve_decide) the decide-cache snapshot handed to --snapshot.
   The generator owns its PRNG (splitmix64), so the same seed gives
   byte-identical inputs on every machine and OCaml version.

   Workload shape is fixed and only the details vary with the seed: the
   template mix is a fixed cycle over request positions, relation sizes and
   degree structure are constants, and the seed picks names, wiring and
   query constants.  That keeps the per-seed medians comparable while every
   request still differs from run to run. *)

module Relation = Fq_db.Relation
module Value = Fq_db.Value
module Json = Fq_core.Json

module Prng = struct
  type t = { mutable s : int64 }

  let make seed = { s = Int64.mul (Int64.of_int (seed + 1)) 0x2545F4914F6CDD1DL }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound = Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int (max 1 bound)))
  let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.
  let pick t a = a.(int t (Array.length a))
end

type workload = Point | Join | Decide

let workloads = [ ("serve_point", Point); ("serve_join", Join); ("serve_decide", Decide) ]
let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* One distinct query.  [truth] is the answer known by construction
   (serve_decide); [None] means the oracle evaluates it in-process. *)
type item = { formula : string; domain : string option; truth : Relation.t option }

type inputs = {
  state : string;  (** the --state-file contents *)
  pool : item array;  (** distinct queries *)
  stream : int array;  (** pool index of request [i] *)
  lines : string array;  (** request [i] as an NDJSON line with id [i] *)
  snapshot : string option;  (** the --snapshot contents (serve_decide) *)
}

(* Fuel every request carries: far above what any generated query needs,
   so answers are complete rather than budget-partial. *)
let request_fuel = 50_000_000

let render_line ~id (it : item) =
  Json.to_string
    (Fq_server.Protocol.request_to_json
       (Fq_server.Protocol.Eval
          { id = string_of_int id;
            domain = it.domain;
            formula = it.formula;
            fuel = Some request_fuel;
            timeout_ms = None;
            resume = None;
            trace = None }))

let digest inp =
  let b = Buffer.create 4096 in
  Buffer.add_string b inp.state;
  Buffer.add_char b '\000';
  Array.iter (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') inp.lines;
  Buffer.add_char b '\000';
  Option.iter (Buffer.add_string b) inp.snapshot;
  Digest.to_hex (Digest.string (Buffer.contents b))

let distinct_names rng ~count ~make =
  let seen = Hashtbl.create (2 * count) in
  let out = ref [] in
  while Hashtbl.length seen < count do
    let s = make rng in
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      out := s :: !out
    end
  done;
  Array.of_list (List.rev !out)

let relation_line name rows =
  Printf.sprintf "%s/%d=%s" name 2
    (String.concat ";" (List.map (fun (a, b) -> a ^ "," ^ b) rows))

let dedup_edges edges =
  let h = Hashtbl.create (List.length edges) in
  List.filter
    (fun e ->
      if Hashtbl.mem h e then false
      else begin
        Hashtbl.add h e ();
        true
      end)
    edges

let q s = "\"" ^ s ^ "\""

(* ------------------------------ serve_point --------------------------- *)

(* A small family forest: 160 people, each later person gets one or two
   parents among the earlier ones.  Every request is a fresh lookup or
   1-hop query with seed-chosen constants, so nothing repeats and every
   request is parsed and compiled anew. *)
let point_state rng =
  let letters = "abcdefghijklmnopqrstuvwxyz" in
  let people =
    distinct_names rng ~count:160 ~make:(fun rng ->
        String.init 6 (fun _ -> letters.[Prng.int rng 26]))
  in
  let edges = ref [] in
  Array.iteri
    (fun i child ->
      if i > 0 then begin
        edges := (people.(Prng.int rng i), child) :: !edges;
        if i > 8 && Prng.int rng 4 = 0 then edges := (people.(Prng.int rng i), child) :: !edges
      end)
    people;
  (people, dedup_edges (List.rev !edges))

(* children, parents, grandchildren, grandparents *)
let point_templates =
  [| (fun a -> Printf.sprintf "F(%s, x)" (q a));
     (fun a -> Printf.sprintf "F(x, %s)" (q a));
     (fun a -> Printf.sprintf "exists y. F(%s, y) /\\ F(y, x)" (q a));
     (fun a -> Printf.sprintf "exists y. F(x, y) /\\ F(y, %s)" (q a)) |]

let point_pool = 4000

let point rng ~n =
  let people, edges = point_state rng in
  let pool =
    Array.init (min n point_pool) (fun i ->
        let mk = point_templates.(i mod Array.length point_templates) in
        { formula = mk (Prng.pick rng people); domain = None; truth = None })
  in
  (relation_line "F" edges ^ "\n", pool, Array.init n (fun i -> i mod point_pool), None)

(* ------------------------------- serve_join --------------------------- *)

let join_vertices = 3000
let join_edges = 12_000
let join_hubs = 8

(* A 12k-edge graph over URI-like vertices.  40% of edges point into one
   of eight hubs (in-degree ~600), the rest are uniform, so anchored
   chains stay selective while joins into a hub return thousands of
   rows. *)
let join_state rng =
  let hex = "0123456789abcdef" in
  let vs =
    Array.init join_vertices (fun i ->
        Printf.sprintf "http://ex.org/r/%s/%d" (String.init 6 (fun _ -> hex.[Prng.int rng 16])) i)
  in
  let hubs = Array.sub vs 0 join_hubs in
  let edges =
    List.init join_edges (fun _ ->
        let src = Prng.pick rng vs in
        let dst = if Prng.int rng 10 < 4 then Prng.pick rng hubs else Prng.pick rng vs in
        (src, dst))
  in
  (vs, hubs, dedup_edges edges)

(* The mix is a fixed 20-slot cycle: 18 selective queries (chains of two
   and three hops, triangles, a set difference) and two large-answer
   queries (~10%) that keep Outcome encoding in the measurement. *)
let join_slots =
  [| ("chain2", `Plain); ("chain3", `Plain); ("chain2_in", `Plain); ("cycle3", `Plain);
     ("minus", `Plain); ("chain2", `Plain); ("chain2_in", `Plain); ("chain3", `Plain);
     ("minus", `Plain); ("into_hub", `Hub); ("chain2", `Plain); ("cycle3", `Plain);
     ("chain2_in", `Plain); ("chain3", `Plain); ("minus", `Plain); ("chain2", `Plain);
     ("cycle3", `Plain); ("chain2_in", `Plain); ("minus", `Plain); ("into_hub_minus", `Hub) |]

let join_formula template v =
  let v = q v in
  match template with
  | "chain2" -> Printf.sprintf "exists y. E(%s, y) /\\ E(y, x)" v
  | "chain3" -> Printf.sprintf "exists y z. E(%s, y) /\\ E(y, z) /\\ E(z, x)" v
  | "chain2_in" -> Printf.sprintf "exists y. E(x, y) /\\ E(y, %s)" v
  | "cycle3" -> Printf.sprintf "exists y. E(%s, y) /\\ E(y, x) /\\ E(x, %s)" v v
  | "minus" -> Printf.sprintf "exists y. E(%s, y) /\\ E(y, x) /\\ ~E(%s, x)" v v
  | "into_hub" -> Printf.sprintf "exists y. E(x, y) /\\ E(y, %s)" v
  | "into_hub_minus" -> Printf.sprintf "exists y. E(x, y) /\\ E(y, %s) /\\ ~E(x, %s)" v v
  | t -> invalid_arg ("join template " ^ t)

let join_per_slot = 30

let join rng ~n =
  let vs, hubs, edges = join_state rng in
  let slots = Array.length join_slots in
  let pool =
    Array.init (slots * join_per_slot) (fun k ->
        let template, kind = join_slots.(k mod slots) in
        let anchor =
          match kind with
          | `Hub -> Prng.pick rng hubs
          | `Plain -> vs.(join_hubs + Prng.int rng (join_vertices - join_hubs))
        in
        { formula = join_formula template anchor; domain = None; truth = None })
  in
  let stream = Array.init n (fun i -> (i mod slots) + (slots * Prng.int rng join_per_slot)) in
  (relation_line "E" edges ^ "\n", pool, stream, None)

(* ------------------------------ serve_decide -------------------------- *)

let ints_rel arity rows =
  Relation.make ~arity (List.map (List.map Value.int) rows)

let truth_rel b = Relation.make ~arity:0 (if b then [ [] ] else [])

(* N_< window [a < x < b] above the smallest R value: not safe-range (x is
   bounded only by <), so it reaches the enumerate tier, which decides one
   sentence per candidate 0, 1, ..., b.  Its answer is a < x < b by
   construction. *)
let window ~a ~b =
  { formula = Printf.sprintf "(exists z. R(z) /\\ z < x) /\\ %d < x /\\ x < %d" a b;
    domain = Some "nat_order";
    truth = Some (ints_rel 1 (List.init (b - a - 1) (fun i -> [ a + 1 + i ]))) }

(* Closed Presburger sentences with known truth values, one of three
   families. *)
let sentence rng ~family =
  match family mod 3 with
  | 0 ->
    let a = 2 + Prng.int rng 8 and b = Prng.int rng 40 in
    let c = b + Prng.int rng 200 in
    { formula = Printf.sprintf "exists x. %d*x + %d = %d" a b c;
      domain = Some "presburger";
      truth = Some (truth_rel ((c - b) mod a = 0)) }
  | 1 ->
    let a = 3 + Prng.int rng 9 and b = 3 + Prng.int rng 9 in
    let c = Prng.int rng 60 in
    let holds = ref false in
    for x = 0 to c / a do
      if (c - (a * x)) mod b = 0 then holds := true
    done;
    { formula = Printf.sprintf "exists x y. %d*x + %d*y = %d" a b c;
      domain = Some "presburger";
      truth = Some (truth_rel !holds) }
  | _ ->
    let k = 2 + Prng.int rng 3 in
    let omit = Prng.int rng (k + 1) (* = k omits nothing *) in
    let cases =
      List.filter_map
        (fun r ->
          if r = omit then None
          else Some (if r = 0 then Printf.sprintf "x = %d*y" k else Printf.sprintf "x = %d*y + %d" k r))
        (List.init k Fun.id)
    in
    { formula = Printf.sprintf "forall x. exists y. %s" (String.concat " \\/ " cases);
      domain = Some "presburger";
      truth = Some (truth_rel (omit = k)) }

let decide_r = 8
let decide_windows = 40
let decide_sentences = 60
let decide_hot_windows = 6
let decide_hot_sentences = 40

(* Zipf(1.1) rank sampler over [n] items. *)
let zipf n =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** 1.1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i x ->
      acc := !acc +. (x /. total);
      cdf.(i) <- !acc)
    w;
  fun rng ->
    let u = Prng.float rng in
    let rec find i = if i >= n - 1 || cdf.(i) >= u then i else find (i + 1) in
    find 0

(* R holds eight numbers between ~40 and ~400.  The stream is a fixed
   25-slot cycle: one fresh item (a new window or sentence, never seen
   before: misses, Cooper/N_< QE and journal writes), 14 windows and ten
   sentences drawn by Zipf rank from their pools (mostly cache hits).
   Window ends come from a fixed ladder of 40 values; the distinct decide
   keys of all windows far exceed the cache's 4096 entries. *)
let decide_state rng =
  let r = List.init decide_r (fun j -> 40 + (50 * j) + Prng.int rng 10) in
  let minr = List.hd r in
  (r, minr)

let decide_window rng ~minr ~b =
  let w = 2 + Prng.int rng 7 in
  window ~a:(max minr (b - w - 1)) ~b

(* Popularity rank [k] always gets the same scan length and sentence
   family, so every seed has the same cost structure. *)
let decide rng ~n =
  let r, minr = decide_state rng in
  let windows =
    Array.init decide_windows (fun k ->
        decide_window rng ~minr ~b:(minr + 60 + (8 * (k * 17 mod decide_windows))))
  in
  let sentences = Array.init decide_sentences (fun k -> sentence rng ~family:k) in
  let zw = zipf decide_windows and zs = zipf decide_sentences in
  let fresh = ref [] and nfresh = ref 0 in
  let nfixed = decide_windows + decide_sentences in
  let stream =
    Array.init n (fun i ->
        match i mod 25 with
        | 0 ->
          let f = !nfresh in
          let it =
            if i mod 50 = 0 then decide_window rng ~minr ~b:(minr + 60 + (f * 37 mod 320))
            else sentence rng ~family:f
          in
          fresh := it :: !fresh;
          incr nfresh;
          nfixed + f
        | s when s mod 5 < 3 -> zw rng
        | _ -> decide_windows + zs rng)
  in
  let pool = Array.concat [ windows; sentences; Array.of_list (List.rev !fresh) ] in
  let state = Printf.sprintf "R/1=%s\n" (String.concat ";" (List.map string_of_int r)) in
  (state, pool, stream, windows, sentences)

(* The snapshot holds the verdicts of the hot set (the most popular
   windows and sentences), computed in-process through a fresh cache and
   saved in the server's snapshot format.  Each hot answer is checked
   against its known truth first. *)
let decide_snapshot ~tmp hot =
  match Fq_db.Codec.load_state tmp with
  | Error e -> Error e
  | Ok st ->
    let cache = Fq_domain.Decide_cache.create () in
    let bad =
      List.filter_map
        (fun it ->
          let dom = Option.get (Fq_server.Protocol.find_domain (Option.get it.domain)) in
          let f = Fq_logic.Parser.formula_exn it.formula in
          let rep =
            Fq_eval.Query.eval_resilient ~budget:(Fq_core.Budget.of_fuel request_fuel) ~cache
              ~domain:dom ~state:st f
          in
          match (rep.Fq_eval.Outcome.verdict, it.truth) with
          | Fq_eval.Outcome.Complete { answer; _ }, Some t when Relation.equal answer t -> None
          | _ -> Some it.formula)
        hot
    in
    if bad <> [] then Error ("snapshot: wrong hot answer for " ^ List.hd bad)
    else
      let path = tmp ^ ".snap" in
      match Fq_domain.Decide_cache.save cache path with
      | Error e -> Error e
      | Ok _ ->
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Sys.remove path;
        Ok s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* [tmp] is a scratch path the decide snapshot is built through. *)
let generate w ~seed ~n ~tmp =
  let rng = Prng.make seed in
  let finish (state, pool, stream, snapshot) =
    let lines = Array.mapi (fun i k -> render_line ~id:i pool.(k)) stream in
    Ok { state; pool; stream; lines; snapshot }
  in
  match w with
  | Point -> finish (point rng ~n)
  | Join -> finish (join rng ~n)
  | Decide -> (
    let state, pool, stream, windows, sentences = decide rng ~n in
    write_file tmp state;
    let hot =
      List.rev
        (Array.to_list (Array.sub windows 0 decide_hot_windows)
        @ Array.to_list (Array.sub sentences 0 decide_hot_sentences))
    in
    let snap = decide_snapshot ~tmp hot in
    Sys.remove tmp;
    match snap with
    | Error e -> Error e
    | Ok s -> finish (state, pool, stream, Some s))
