(** The interface a labeled scheme presents to the name-independent layer
    stacked on top of it (Section 3: "the effective underlying labeled
    routing scheme").

    Theorem 1.4 plugs in the non-scale-free hierarchical scheme (Lemma 3.1);
    Theorem 1.1 plugs in the scale-free scheme of Theorem 1.2. *)

type t = {
  u_name : string;
  u_label : int -> int;  (** node -> routing label l(v) *)
  u_drive : Forward.exec -> dest_label:int -> unit;
      (** the scheme's forwarding driver: move the packet to the labeled
          node, paying real edge costs *)
  u_table_bits : int -> int;  (** per-node storage of the labeled scheme *)
  u_label_bits : int;
  u_header_bits : int;
}
