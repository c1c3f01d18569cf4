(* parser-like kernel: dictionary lookup flavour.

   Memory-reference character being imitated: hash-bucket chains of
   heap-allocated word entries walked per query, with entry fields re-read
   across frequency-counter updates that go through a cursor drawn from a
   pointer table (statically it may point into the entry heap — one table
   slot really does — dynamically it stays in the counter arrays).
   Indirect references dominate the reductions here, as Figure 9 reports
   for parser. *)

let source = {|
struct entry { int key; int count; int weight; struct entry* next; };

struct entry* buckets[512];
int freq[512];
int* counters[8];

int n_words;        // input
int n_queries;      // input
int words[8192];    // input
int queries[16384]; // input
int checksum;

void insert(int key) {
  int h = key % 512;
  if (h < 0) { h = -h; }
  struct entry* e = malloc(32);
  e->key = key;
  e->count = 0;
  e->weight = key % 97;
  e->next = buckets[h];
  buckets[h] = e;
}

int lookup(int key, int qi) {
  int h = key % 512;
  if (h < 0) { h = -h; }
  int* cursor = counters[qi % 7];   // never slot 7 (the heap resident)
  struct entry* e = buckets[h];
  int hops = 0;
  while (e != 0) {
    // e->key read, cursor store intervenes, e->key and e->weight re-read
    int k = e->key;
    *cursor = *cursor + 1;
    if (e->key == key) {
      e->count = e->count + 1;
      return e->weight + hops + k;
    }
    hops = hops + e->weight - k % 3;
    e = e->next;
  }
  return hops;
}

// occasional recursive audit over a bucket chain: the deep call stack is
// what exercises the register stack engine; promotion widens each frame
// slightly, so RSE traffic grows by a few tens of percent while staying a
// vanishing fraction of total cycles (Figure 11)
int audit(struct entry* e, int* cursor, int depth) {
  if (e == 0 || depth > 40) { return depth; }
  int k = e->key;
  *cursor = *cursor + k;
  // re-reads across the cursor store: the promoted build keeps them in
  // registers, widening this frame on the deep recursive chain
  int v = e->key * 3 + e->weight;
  *cursor = *cursor + v;
  return k % 5 + audit(e->next, cursor, depth + 1) + e->weight + e->key - v;
}

int main() {
  int i;
  for (i = 0; i < 7; i = i + 1) { counters[i] = &freq[i * 64]; }
  for (i = 0; i < n_words; i = i + 1) { insert(words[i]); }
  // the poison entry: a pointer into the entry heap
  counters[7] = &(buckets[words[0] % 512 < 0 ? 0 : words[0] % 512]->count);
  int q;
  for (q = 0; q < n_queries; q = q + 1) {
    checksum = checksum + lookup(queries[q % 16384] % 4096, q);
    if ((q & 511) == 511) {
      checksum = checksum + audit(buckets[q % 512], counters[q % 7], 0);
    }
  }
  print_int(checksum);
  print_int(freq[64]);
  return 0;
}
|}

let workload : Srp_driver.Workload.t =
  { name = "parser";
    description = "dictionary hash chains: entry fields re-read across counter-cursor stores";
    source;
    train =
      Srp_driver.Workload.input
        [ ("n_words", Input_gen.scalar_int 800);
          ("n_queries", Input_gen.scalar_int 2500);
          ("words", Input_gen.ints ~seed:121 ~n:8192 ~lo:1 ~hi:4096);
          ("queries", Input_gen.ints ~seed:122 ~n:16384 ~lo:1 ~hi:4096) ];
    ref_ =
      Srp_driver.Workload.input
        [ ("n_words", Input_gen.scalar_int 4000);
          ("n_queries", Input_gen.scalar_int 16000);
          ("words", Input_gen.ints ~seed:221 ~n:8192 ~lo:1 ~hi:4096);
          ("queries", Input_gen.ints ~seed:222 ~n:16384 ~lo:1 ~hi:4096) ] }
