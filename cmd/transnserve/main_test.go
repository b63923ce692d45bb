package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// asServeEnv makes the test binary run transnserve's main with the
// arguments after "--" instead of the tests, so a test can start the
// real daemon as a child process and signal it.
const asServeEnv = "TRANSNSERVE_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asServeEnv) == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{os.Args[0]}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGTERMRightAfterStartDrains sends SIGTERM the moment the daemon
// prints its address line and requires a graceful drain (exit 0 and the
// "draining" message), not death by the signal's default action.
func TestSIGTERMRightAfterStartDrains(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$", "--",
		"-graph", "../../internal/serve/testdata/quickstart.tsv",
		"-model", "../../internal/serve/testdata/quickstart.model",
		"-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), asServeEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	kill := time.AfterFunc(60*time.Second, func() { cmd.Process.Kill() })
	defer kill.Stop()

	var log bytes.Buffer
	sc := bufio.NewScanner(stderr)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		log.WriteString(line + "\n")
		if !signalled && strings.Contains(line, "serving generation") {
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			signalled = true
		}
	}
	err = cmd.Wait()
	if !signalled {
		t.Fatalf("daemon never printed its address line (wait: %v); stderr:\n%s", err, log.String())
	}
	if err != nil {
		t.Fatalf("daemon did not exit cleanly after SIGTERM: %v; stderr:\n%s", err, log.String())
	}
	if !strings.Contains(log.String(), "draining") {
		t.Fatalf("no draining message after SIGTERM; stderr:\n%s", log.String())
	}
}
