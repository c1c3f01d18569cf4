(* mcf-like kernel: network-simplex pricing flavour.

   Memory-reference character being imitated: pointer chasing through
   heap-allocated node and arc structures, with node fields (potential,
   depth) re-read inside the arc scan across stores through a statistics
   cursor.  The cursor is fetched from a pointer table that also holds a
   pointer into the node heap (installed once during build, never selected
   on the hot path), so *any* flow-insensitive points-to analysis must
   assume the cursor may write node fields — while the alias profile shows
   it only ever touches the stats arrays.  This "pointer table with a rare
   resident" is the C idiom (callback/state tables) that defeats the ORC
   baseline in the paper and that ALAT speculation recovers. *)

let source = {|
struct node { int potential; int depth; int flow; struct node* parent; };
struct arc { int cost; int cap; struct arc* next; struct node* tail; struct node* head; };

struct node* nodes[2048];
struct arc* arcs[6144];
int stats[256];
int* slots[16];          // slot 15 points into the node heap; never used hot

int n_nodes;      // input
int n_rounds;     // input
int costs[6144];  // input
int wiring[6144]; // input
int checksum;

void build() {
  int i;
  for (i = 0; i < n_nodes; i = i + 1) {
    struct node* nd = malloc(32);
    nd->potential = costs[i] * 3 + 1;
    nd->depth = i;
    nd->flow = 0;
    nd->parent = 0;
    nodes[i] = nd;
  }
  for (i = 1; i < n_nodes; i = i + 1) {
    nodes[i]->parent = nodes[wiring[i] % i];
  }
  for (i = 0; i < 3 * n_nodes; i = i + 1) {
    struct arc* a = malloc(40);
    a->cost = costs[i % 6144];
    a->cap = 64 + (i % 128);
    a->tail = nodes[i % n_nodes];
    a->head = nodes[wiring[i % 6144] % n_nodes];
    a->next = 0;
    arcs[i] = a;
  }
  for (i = 0; i < 15; i = i + 1) {
    slots[i] = &stats[i * 16];
  }
  // the poison entry: a genuine pointer into the heap class
  slots[15] = &(nodes[0]->flow);
}

int price_round(int r) {
  int reduced = 0;
  int i = 0;
  int m = 3 * n_nodes;
  int* cursor = slots[r % 15];     // dynamically always a stats pointer
  while (i < m) {
    struct arc* a = arcs[i];
    struct node* t = a->tail;
    struct node* h = a->head;
    // potentials are read, a cursor store intervenes (statically aliased
    // with the node heap), and the potentials are re-read
    int rc = a->cost + t->potential - h->potential;
    *cursor = *cursor + rc;
    if (rc < 0) {
      reduced = reduced + t->potential - h->potential;
    } else {
      reduced = reduced + (rc % 7);
    }
    i = i + 1;
  }
  return reduced;
}

int update_tree(int r) {
  int i;
  int depth_sum = 0;
  int* cursor = slots[(r + 3) % 15];
  for (i = 0; i < n_nodes; i = i + 1) {
    struct node* nd = nodes[i];
    struct node* p = nd->parent;
    if (p != 0) {
      // parent->depth is read on both sides of the cursor store
      int d = p->depth;
      *cursor = *cursor + d;
      depth_sum = depth_sum + p->depth + d + nd->potential;
    }
  }
  return depth_sum;
}

int main() {
  build();
  int r;
  for (r = 0; r < n_rounds; r = r + 1) {
    checksum = checksum + price_round(r);
    checksum = checksum + update_tree(r);
  }
  print_int(checksum);
  print_int(stats[16]);
  return 0;
}
|}

let workload : Srp_driver.Workload.t =
  { name = "mcf";
    description = "network-simplex pricing: heap pointer chasing across pointer-table cursor stores";
    source;
    train =
      Srp_driver.Workload.input
        [ ("n_nodes", Input_gen.scalar_int 256);
          ("n_rounds", Input_gen.scalar_int 4);
          ("costs", Input_gen.ints ~seed:111 ~n:6144 ~lo:(-40) ~hi:60);
          ("wiring", Input_gen.ints ~seed:112 ~n:6144 ~lo:0 ~hi:100000) ];
    ref_ =
      Srp_driver.Workload.input
        [ ("n_nodes", Input_gen.scalar_int 1400);
          ("n_rounds", Input_gen.scalar_int 12);
          ("costs", Input_gen.ints ~seed:211 ~n:6144 ~lo:(-40) ~hi:60);
          ("wiring", Input_gen.ints ~seed:212 ~n:6144 ~lo:0 ~hi:100000) ] }
