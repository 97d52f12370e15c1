// Command scionmpr runs the reproduction's simulations and experiments,
// one subcommand each, in the shape of the deployed stack's one `scion`
// tool with subcommands:
//
//	scionmpr topogen     generate and inspect AS-level topologies
//	scionmpr beaconsim   one beaconing run: overhead and path quality
//	scionmpr chaossim    core beaconing under a fault-injection schedule
//	scionmpr pathprobe   look up and probe the paths between two ASes
//	scionmpr trafficsim  multipath flows over a bootstrapped network
//	scionmpr experiments the paper's tables and figures
//
// `scionmpr <subcommand> -h` lists a subcommand's flags. A subcommand
// exits 1 when it fails and 2 for a command line it rejects; errors go
// to stderr prefixed with its name.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// A command is one subcommand. flags registers its flags on its own
// FlagSet and returns its body, which runs once they are parsed.
type command struct {
	name, summary string
	flags         func(fs *flag.FlagSet) func(w io.Writer) error
}

var commands = []command{
	{"topogen", "generate and inspect AS-level topologies", topogen},
	{"beaconsim", "one beaconing run: overhead and path quality", beaconsim},
	{"chaossim", "core beaconing under a fault-injection schedule", chaossim},
	{"pathprobe", "look up and probe the paths between two ASes", pathprobe},
	{"trafficsim", "multipath flows over a bootstrapped network", trafficsim},
	{"experiments", "the paper's tables and figures", experimentsCmd},
}

// usageError is a command line a subcommand rejects after its flags
// parsed; it exits 2, as a bad flag does.
type usageError struct{ error }

// errFlags is a flag parse error, which package flag has already
// reported together with the subcommand's usage.
var errFlags = errors.New("bad flags")

func main() { os.Exit(dispatch(os.Stdout, os.Stderr, os.Args[1:])) }

// dispatch runs the subcommand args[0] names and returns the exit status.
func dispatch(stdout, stderr io.Writer, args []string) int {
	var c *command
	for i := range commands {
		if len(args) > 0 && commands[i].name == args[0] {
			c = &commands[i]
		}
	}
	if c == nil {
		fmt.Fprintln(stderr, "usage: scionmpr <subcommand> [flags]\n\nsubcommands:")
		for _, c := range commands {
			fmt.Fprintf(stderr, "  %-12s %s\n", c.name, c.summary)
		}
		return 2
	}
	err := c.run(stdout, stderr, args[1:])
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errFlags):
		return 2
	}
	fmt.Fprintf(stderr, "%s: %v\n", c.name, err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// run parses args with c's flags, reporting a bad one on stderr, and
// runs c's body.
func (c *command) run(stdout, stderr io.Writer, args []string) error {
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	body := c.flags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errFlags
	}
	return body(stdout)
}
