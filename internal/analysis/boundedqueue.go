package analysis

import "go/ast"

// boundedQueuePackages are the request-serving tiers: the replica server
// and the gateway in front of it, plus the recovery and visa layers that
// sit on the same request paths (scoped in lint round 2). All of them sit
// between an HTTP caller and a queue, so all owe the caller an explicit
// shed instead of a silent block. internal/tenant (PR 10) is the quota
// layer in front of the shared admission queue and must shed, not queue.
var boundedQueuePackages = []string{
	"internal/server",
	"internal/gateway",
	"internal/recovery",
	"internal/visa",
	"internal/tenant",
}

// BoundedQueue flags bare channel sends in the serving tiers.
//
// Invariant (PR 3, extended to the gateway in PR 7): every send on a
// serving-path channel is either a select-with-default (admission control
// sheds with 429 when the queue is full) or a select bounded by ctx.Done
// (admitted work applies backpressure but honors the caller's deadline,
// the ScoreTarget pattern). A bare `ch <- v` can block a request handler
// forever and turns a full queue into unbounded goroutine pileup instead
// of explicit load shedding.
var BoundedQueue = &Analyzer{
	Name: "boundedqueue",
	Doc:  "channel sends in internal/server and internal/gateway must shed (select+default) or bound the wait (ctx.Done case)",
	Run:  runBoundedQueue,
}

func runBoundedQueue(p *Pass) {
	if !pathWithinAny(p.Pkg.PkgPath, boundedQueuePackages) {
		return
	}
	// escorted holds sends that appear as the comm statement of a select
	// clause with an escape hatch (default, or any receive case such as
	// <-ctx.Done()).
	escorted := map[*ast.SendStmt]bool{}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, isSel := n.(*ast.SelectStmt)
			if !isSel {
				return true
			}
			hasEscape := false
			var sends []*ast.SendStmt
			for _, stmt := range sel.Body.List {
				clause := stmt.(*ast.CommClause)
				switch comm := clause.Comm.(type) {
				case nil: // default:
					hasEscape = true
				case *ast.SendStmt:
					sends = append(sends, comm)
				default: // receive cases (<-ctx.Done(), result channels)
					hasEscape = true
				}
			}
			if hasEscape {
				for _, s := range sends {
					escorted[s] = true
				}
			}
			return true
		})
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if s, isSend := n.(*ast.SendStmt); isSend && !escorted[s] {
				p.Reportf(s.Arrow, "bare channel send on a serving path: shed with select+default or bound the wait with a ctx.Done case")
			}
			return true
		})
	}
}
