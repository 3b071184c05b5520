// Persistence: the production deployment flow — preprocess the graph once
// offline, persist the result as a .mixp partition file, then map it back
// and serve immediately with no filter pass and no partitioning. Table 4
// shows preprocessing dominates Mixen's start-up; the partition file moves
// that cost entirely offline (mixenconvert -partition does the same from
// the command line, and mixenserve -partition serves the file).
//
//	go run ./examples/persistence
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"mixen"
)

func main() {
	// Offline: build (or crawl) the graph and preprocess it once.
	g, err := mixen.Dataset("pld", 16)
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	eng, err := mixen.New(g, mixen.Config{})
	if err != nil {
		log.Fatal(err)
	}
	prep := time.Since(t0)

	dir, err := os.MkdirTemp("", "mixen-persistence")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "pld.mixp")
	if err := mixen.WritePartition(path, eng); err != nil {
		log.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline: preprocessed %v in %v; persisted %d B partition\n",
		g, prep.Round(time.Microsecond), st.Size())

	// Online: map the partition and serve from it. The file carries the
	// out-degree snapshot, so no graph is needed.
	t1 := time.Now()
	mapped, err := mixen.OpenPartition(path, mixen.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer mapped.Close()
	meta := mapped.Meta()
	fmt.Printf("online: opened in %v (%d nodes, %d hubs, side %d)\n",
		time.Since(t1).Round(time.Microsecond), meta.N, meta.NumHub, meta.Side)

	// The mapped engine answers exactly like the one it was written from.
	res, err := mapped.Run(mixen.NewPageRankProgramShared(meta.N, mapped.OutDegrees(), 0.85, 1e-10, 100))
	if err != nil {
		log.Fatal(err)
	}
	ref, err := eng.Run(mixen.NewPageRankProgram(g, 0.85, 1e-10, 100))
	if err != nil {
		log.Fatal(err)
	}
	ranks := res.Values
	best := 0
	for v := range ranks {
		if ranks[v] != ref.Values[v] {
			log.Fatalf("node %d: mapped rank %v, built rank %v", v, ranks[v], ref.Values[v])
		}
		if ranks[v] > ranks[best] {
			best = v
		}
	}
	fmt.Printf("pagerank from the partition: top node %d (rank %.6f), identical to the built engine\n",
		best, ranks[best])
}
