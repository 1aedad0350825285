package cluster

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"smiler"
	"smiler/internal/fault"
	"smiler/internal/ingest"
	"smiler/internal/server"
)

// eventually polls until cond holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPeerOversizedResponseRejected: an answer past the RPC's cap is
// an error, never a partial decode.
func TestPeerOversizedResponseRejected(t *testing.T) {
	nodes := newInternalPair(t)
	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"applied":1,"resync":["`)
		chunk := strings.Repeat("a", 64<<10)
		for sent := int64(0); sent <= 2*rpcReplicate.cap; sent += int64(len(chunk)) {
			if _, err := fmt.Fprint(w, chunk); err != nil {
				return // the reader hung up at its cap
			}
		}
		fmt.Fprint(w, `"]}`)
	}))
	defer big.Close()

	var rr replicateResponse
	err := nodes[0].node.peerJSON(context.Background(), Member{ID: "big", URL: big.URL}, rpcReplicate, nil, &rr)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("replicate answer of %d bytes: err = %v, want a cap error", 2*rpcReplicate.cap, err)
	}
	if rr.Applied != 0 || len(rr.Resync) != 0 {
		t.Fatalf("oversized answer was decoded anyway: %+v", rr)
	}
}

// fakePeer is a member that answers 200 {} to everything and counts
// what reached it, keyed "METHOD path".
type fakePeer struct {
	Member
	mu   sync.Mutex
	seen map[string]int
}

func newFakePeer(t *testing.T, id string) *fakePeer {
	fp := &fakePeer{seen: make(map[string]int)}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fp.mu.Lock()
		fp.seen[r.Method+" "+r.URL.Path]++
		fp.mu.Unlock()
		fmt.Fprint(w, "{}")
	}))
	t.Cleanup(ts.Close)
	fp.Member = Member{ID: id, URL: ts.URL}
	return fp
}

func (fp *fakePeer) count(key string) int {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.seen[key]
}

func (fp *fakePeer) total() int {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	n := 0
	for _, c := range fp.seen {
		n += c
	}
	return n
}

// TestPeerPartitionIsTotal: with cluster.peer:n2 armed, no call of any
// kind reaches n2's listener, while the same calls to n3 arrive. Every
// RPC in the client table must be driven by at least one call site.
func TestPeerPartitionIsTotal(t *testing.T) {
	n2, n3 := newFakePeer(t, "n2"), newFakePeer(t, "n3")
	sys, err := smiler.New(internalSysConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv, err := server.NewWithOptions(sys, server.Options{
		NodeID: "n4", Pipeline: ingest.Config{Shards: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// An hour between probes: the background loops stay silent, so every
	// request the fakes count was driven by the table below.
	n, err := New(sys, srv, Config{
		Self:          "n4",
		Members:       []Member{n2.Member, n3.Member, {ID: "n4", URL: ts.URL}},
		ProbeInterval: time.Hour,
		HTTPClient:    &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	in := fault.NewInjector(1)
	in.Set(fault.PointClusterPeer+":n2", fault.Rule{Kind: fault.KindError, After: 1})
	fault.Arm(in)
	t.Cleanup(fault.Disarm)

	// A sensor this node owns, for the calls that move real state.
	sensor := ""
	for i := 0; sensor == ""; i++ {
		if s := fmt.Sprintf("part-%d", i); n.preference(s)[0] == "n4" {
			sensor = s
		}
	}
	if err := sys.AddSensor(sensor, internalHist(200)); err != nil {
		t.Fatal(err)
	}
	apiReq := func(method, target string) *http.Request {
		return httptest.NewRequest(method, target, strings.NewReader("{}"))
	}
	bg := context.Background()

	cases := []struct {
		rpc  peerRPC
		site string
		key  string // what the target's listener sees ("" = rpc's method and path)
		call func(to Member)
	}{
		{rpcRestore, "shipSnapshot", "", func(to Member) { n.shipSnapshot(bg, to, []byte("snap"), 1) }},
		{rpcRestore, "pushSnapshot (resync)", "", func(to Member) { n.repl.pushSnapshot(n.repl.peers[to.ID], sensor) }},
		{rpcReplicate, "replicator.post", "", func(to Member) { n.repl.post(n.repl.peers[to.ID], nil) }},
		{rpcForward, "forward", "GET /sensors/x/forecast", func(to Member) {
			n.forward(httptest.NewRecorder(), apiReq("GET", "/sensors/x/forecast?h=1"), to, nil, "x")
		}},
		{rpcForwardBulk, "forwardBulk", "", func(to Member) {
			n.forwardBulk(apiReq("POST", "/observations"), to, []ingest.Observation{{Sensor: "x", Value: 1}}, "k")
		}},
		{rpcProbe, "prober.probe", "", func(to Member) { n.health.probe(to.ID) }},
	}

	driven := make(map[string]bool)
	for _, c := range cases {
		driven[c.rpc.name] = true
		key := c.key
		if key == "" {
			key = c.rpc.method + " " + c.rpc.path
		}
		before := n3.count(key)
		c.call(n2.Member)
		c.call(n3.Member)
		if n3.count(key) == before {
			t.Errorf("%s via %s: nothing reached n3 (%s)", c.rpc.name, c.site, key)
		}
	}
	if got := n2.total(); got != 0 {
		t.Errorf("%d request(s) reached n2 through the partition: %v", got, n2.seen)
	}
	for _, rpc := range peerRPCs {
		if !driven[rpc.name] {
			t.Errorf("RPC %q is in the client table but no call site above drives it", rpc.name)
		}
	}
}

// packageSources parses this package's non-test files.
func packageSources(t *testing.T) (*token.FileSet, map[string]*ast.File) {
	t.Helper()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := make(map[string]*ast.File)
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = f
	}
	return fset, files
}

// TestPeerProtocolHasOneHome: outside peer.go nothing builds an HTTP
// request, touches the node's HTTP client or mounts a route — so
// peerCall stays the one transport seam and peerRoutes the one route
// table.
func TestPeerProtocolHasOneHome(t *testing.T) {
	fset, files := packageSources(t)
	if files["peer.go"] == nil {
		t.Fatal("peer.go not found")
	}
	for name, f := range files {
		if name == "peer.go" {
			continue
		}
		ast.Inspect(f, func(nd ast.Node) bool {
			switch x := nd.(type) {
			case *ast.SelectorExpr:
				pkg, _ := x.X.(*ast.Ident)
				switch {
				case pkg != nil && pkg.Name == "http" && (strings.HasPrefix(x.Sel.Name, "NewRequest") ||
					x.Sel.Name == "Get" || x.Sel.Name == "Post" || x.Sel.Name == "Head" ||
					x.Sel.Name == "PostForm" || x.Sel.Name == "DefaultClient"):
					t.Errorf("%s: http.%s outside peer.go — send it through peerCall", fset.Position(x.Pos()), x.Sel.Name)
				case x.Sel.Name == "hc":
					t.Errorf("%s: the node's HTTP client used outside peer.go — send it through peerCall", fset.Position(x.Pos()))
				case x.Sel.Name == "Handle" || x.Sel.Name == "HandleFunc":
					t.Errorf("%s: route mounted outside peer.go — add a peerRoutes row", fset.Position(x.Pos()))
				}
			case *ast.BasicLit:
				if x.Kind == token.STRING && strings.HasPrefix(x.Value, `"/cluster/`) {
					t.Errorf("%s: /cluster/ path literal %s outside peer.go — it belongs in a table row", fset.Position(x.Pos()), x.Value)
				}
			}
			return true
		})
	}
	for _, rt := range peerRoutes {
		if !strings.HasPrefix(rt.path, "/cluster/") {
			t.Errorf("route %s %s is not under /cluster/", rt.method, rt.path)
		}
	}
}

func fmtCap(n int64) string {
	switch {
	case n == 0:
		return "—"
	case n >= 1<<20:
		return fmt.Sprintf("%d MiB", n>>20)
	default:
		return fmt.Sprintf("%d KiB", n>>10)
	}
}

func orDash(s string) string {
	if s == "" {
		return "—"
	}
	return "`" + s + "`"
}

// peerProtocolTable renders the two tables as docs/CLUSTER.md's "Peer
// protocol" rows: one per route (joined with the RPC that calls it),
// then the RPCs whose target is not a /cluster/* route.
func peerProtocolTable() []string {
	var rows []string
	called := make(map[string]bool)
	for _, rt := range peerRoutes {
		sender, point, respCap := "operators", "", int64(0)
		for _, rpc := range peerRPCs {
			if rpc.method == rt.method && rpc.path == rt.path {
				sender, point, respCap = rpc.sender, rpc.point, rpc.cap
				called[rpc.name] = true
			}
		}
		rows = append(rows, fmt.Sprintf("| `%s` | %s | %s | %s | %s | %s / %s |",
			rt.path, rt.method, rt.auth, sender, orDash(point), fmtCap(rt.bodyCap), fmtCap(respCap)))
	}
	for _, rpc := range peerRPCs {
		if called[rpc.name] {
			continue
		}
		method, path := rpc.method, "`"+rpc.path+"`"
		if rpc.path == "" {
			method, path = "any", "any sensor-scoped API route"
		}
		respCap := fmtCap(rpc.cap)
		if rpc.cap == 0 {
			respCap = "streamed"
		}
		rows = append(rows, fmt.Sprintf("| %s | %s | — | %s | %s | — / %s |",
			path, method, rpc.sender, orDash(rpc.point), respCap))
	}
	return rows
}

// TestPeerProtocolDocumented: docs/CLUSTER.md carries exactly the rows
// the tables render.
func TestPeerProtocolDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/CLUSTER.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := peerProtocolTable()
	for _, row := range rows {
		if !strings.Contains(string(doc), row+"\n") {
			t.Errorf("docs/CLUSTER.md is missing the row\n%s", row)
		}
	}
	if t.Failed() {
		t.Logf("the \"Peer protocol\" table should read:\n%s", strings.Join(rows, "\n"))
	}
}
