// Command cosmoflow-gwctl is the operator CLI for cosmoflow-gateway's
// admin plane (/v1/admin/*): tenant CRUD and the v2 stats snapshot.
// Every call goes through the typed client (internal/serve/client) —
// gwctl is how scripts and smoke tests reach the admin surface without
// hand-rolled curl against internal routes.
//
// Usage:
//
//	cosmoflow-gwctl -addr http://localhost:8090 [-key OPKEY] <command>
//
//	tenants                      list the admission table
//	tenants put KEY [flags]      upsert one tenant (hot reload)
//	    -name N -class premium|standard|best-effort -rate R -burst B
//	tenants rm KEY               delete a tenant
//	stats                        GET /stats (cosmoflow-stats/v2)
//
// Output is indented JSON on stdout, so assertions in shell pipe through
// standard tooling. Exit status is non-zero on any API error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/serve/api"
	"repro/internal/serve/client"
)

func emit(v any) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosmoflow-gwctl: ")

	addr := flag.String("addr", "http://localhost:8090", "cosmoflow-gateway base URL")
	key := flag.String("key", "", "operator API key for /v1/admin/* (when the gateway has -admin-key)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-call round-trip cap")
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	cl := client.New(*addr, client.WithAPIKey(*key), client.WithTimeout(*timeout))
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch args[0] {
	case "tenants":
		runTenants(ctx, cl, args[1:])
	case "stats":
		sr, err := cl.GatewayStats(ctx)
		if err != nil {
			log.Fatal(err)
		}
		emit(sr)
	default:
		log.Fatalf("unknown command %q (want tenants or stats)", args[0])
	}
}

func runTenants(ctx context.Context, cl *client.Client, args []string) {
	if len(args) == 0 {
		list, err := cl.ListTenants(ctx)
		if err != nil {
			log.Fatal(err)
		}
		emit(api.TenantList{Tenants: list})
		return
	}
	switch args[0] {
	case "put":
		fs := flag.NewFlagSet("tenants put", flag.ExitOnError)
		name := fs.String("name", "", "display name (default: the key)")
		class := fs.String("class", api.ClassStandard, "priority class: premium, standard, or best-effort")
		rate := fs.Float64("rate", 0, "sustained requests/s (0: unlimited)")
		burst := fs.Float64("burst", 0, "token bucket depth (0: max(1, rate))")
		if len(args) < 2 {
			log.Fatal("tenants put needs a KEY")
		}
		_ = fs.Parse(args[2:])
		if err := cl.PutTenant(ctx, api.Tenant{
			Key: args[1], Name: *name, Class: *class, RatePerSec: *rate, Burst: *burst,
		}); err != nil {
			log.Fatal(err)
		}
		list, err := cl.ListTenants(ctx)
		if err != nil {
			log.Fatal(err)
		}
		emit(api.TenantList{Tenants: list})
	case "rm":
		if len(args) < 2 {
			log.Fatal("tenants rm needs a KEY")
		}
		if err := cl.DeleteTenant(ctx, args[1]); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("{\"deleted\": %q}\n", args[1])
	default:
		log.Fatalf("unknown tenants subcommand %q (want put or rm)", args[0])
	}
}
