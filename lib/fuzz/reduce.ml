(* Test-case minimization for MiniC sources: delta debugging over
   brace-balanced statement regions and single statement lines, plus
   expression hole-filling. The interestingness test [check] decides what
   "still fails" means; this module only proposes structurally plausible
   candidates (a candidate that no longer parses is simply rejected by
   [check]). *)

let split_lines s = String.split_on_char '\n' s
let join_lines ls = String.concat "\n" ls

(* Brace-balanced regions as inclusive (start, stop) line-index pairs.
   A "} else {" line continues the region opened by the matching "if", so a
   whole if/else statement is one region and its removal stays balanced. *)
let regions lines =
  let acc = ref [] in
  let stack = ref [] in
  Array.iteri
    (fun i line ->
      let opens = String.contains line '{' in
      let closes = String.contains line '}' in
      if closes && opens then ()
        (* "} else {": region continues, stack unchanged *)
      else if opens then stack := i :: !stack
      else if closes then
        match !stack with
        | s :: rest ->
            acc := (s, i) :: !acc;
            stack := rest
        | [] -> ())
    lines;
  (* Largest regions first: one successful removal deletes many lines. *)
  List.sort (fun (a, b) (c, d) -> compare (d - c) (b - a)) !acc

let is_statement_line line =
  let t = String.trim line in
  String.length t > 0
  && t.[String.length t - 1] = ';'
  && not (String.contains t '{')

(* Replace the right-hand side of an assignment-like line with "0". The
   first top-level '=' that is not part of a comparison operator splits the
   line; condition lines (inside "if (...)") never reach here because they
   end in '{', not ';'. *)
let hole_rhs line =
  let n = String.length line in
  let rec find i =
    if i >= n then None
    else if
      line.[i] = '='
      && (i + 1 >= n || line.[i + 1] <> '=')
      && (i = 0 || not (List.mem line.[i - 1] [ '='; '!'; '<'; '>' ]))
    then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i when is_statement_line line -> Some (String.sub line 0 (i + 1) ^ " 0;")
  | _ -> None

(* Simplifying rewrites of a single line; each is tried in order. *)
let line_rewrites line =
  let t = String.trim line in
  let pad = String.sub line 0 (String.length line - String.length t) in
  let starts p = String.length t >= String.length p && String.sub t 0 (String.length p) = p in
  let cands = ref [] in
  let add c = if c <> line then cands := c :: !cands in
  if starts "return " then add (pad ^ "return 0;");
  if starts "if (" && String.contains t '{' then begin
    add (pad ^ "if (1) {");
    add (pad ^ "if (0) {")
  end;
  if starts "while (" && String.contains t '{' then add (pad ^ "while (0) {");
  if starts "switch (" && String.contains t '{' then add (pad ^ "switch (0) {");
  (match hole_rhs line with Some c -> add c | None -> ());
  List.rev !cands

let apply_removal lines (s, e) =
  let out = ref [] in
  Array.iteri (fun i l -> if i < s || i > e then out := l :: !out) lines;
  join_lines (List.rev !out)

let apply_rewrite lines i repl =
  let out = ref [] in
  Array.iteri (fun j l -> out := (if j = i then repl else l) :: !out) lines;
  join_lines (List.rev !out)

let count_source_lines s =
  List.length (List.filter (fun l -> String.trim l <> "") (split_lines s))

let minimize ~check src =
  let current = ref src in
  let try_accept cand =
    if cand <> !current && check cand then begin
      current := cand;
      true
    end
    else false
  in
  let round () =
    let progress = ref false in
    (* 1. Drop whole statement regions (functions, ifs, loops, switches).
       Recompute regions after every success: indices shift. *)
    let rec drop_regions () =
      let lines = Array.of_list (split_lines !current) in
      let rec try_each = function
        | [] -> ()
        | r :: rest ->
            if try_accept (apply_removal lines r) then begin
              progress := true;
              drop_regions ()
            end
            else try_each rest
      in
      try_each (regions lines)
    in
    drop_regions ();
    (* 2. Drop single statement lines, back to front so indices of
       not-yet-visited candidates stay valid. *)
    let lines = Array.of_list (split_lines !current) in
    let n = Array.length lines in
    let removed = ref false in
    for i = n - 1 downto 0 do
      let t = String.trim lines.(i) in
      if
        is_statement_line lines.(i)
        || t = "" || String.length t >= 6 && String.sub t 0 6 = "module"
        || String.length t >= 6 && String.sub t 0 6 = "global"
      then begin
        let lines' = Array.of_list (split_lines !current) in
        (* index still valid only while no earlier removal happened at or
           below i; recompute from the (possibly shrunk) current text *)
        if i < Array.length lines' && lines'.(i) = lines.(i) then
          if try_accept (apply_removal lines' (i, i)) then begin
            progress := true;
            removed := true
          end
      end
    done;
    ignore !removed;
    (* 3. Expression hole-filling and condition pinning. *)
    let lines = Array.of_list (split_lines !current) in
    Array.iteri
      (fun i l ->
        let lines' = Array.of_list (split_lines !current) in
        if i < Array.length lines' && lines'.(i) = l then
          List.iter
            (fun repl ->
              let lines'' = Array.of_list (split_lines !current) in
              if i < Array.length lines'' && lines''.(i) = l then
                if try_accept (apply_rewrite lines'' i repl) then progress := true)
            (line_rewrites l))
      lines;
    !progress
  in
  let rec loop k = if k > 0 && round () then loop (k - 1) in
  loop 20;
  !current
